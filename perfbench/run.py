"""REPT performance benchmark.

    python3 perfbench/run.py --workload <batch-web|stream-comm>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds the program and the benchmark from
source (see build.py), runs one workload in a fresh JVM and prints, as the
last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("batch-web", "stream-comm")
# A run must end within 180 s; the JVM gets what the build left of that.
RUN_LIMIT_S = 175
HEAP = "4g"


def parse():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    return a


def main():
    a = parse()
    t0 = time.monotonic()
    try:
        classpath = build.build()
    except build.BuildError as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    out_dir = build.build_dir()
    tmp = os.path.join(out_dir, "tmp", str(os.getpid()))
    reports = os.path.join(out_dir, "reports")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(reports, exist_ok=True)
    # A fixed heap size keeps GC sizing the same from run to run.
    cmd = [build.java_bin(), "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:+UseG1GC"] + build.JVM_OPENS + [
        "-Djava.io.tmpdir=" + tmp,
        "-Dspark.local.dir=" + os.path.join(tmp, "spark"),
        "-Dspark.sql.warehouse.dir=" + os.path.join(tmp, "warehouse"),
        "-Dlog4j2.configurationFile=" + os.path.join(build.BENCH_DIR, "log4j2.properties"),
        "-cp", os.pathsep.join(classpath), "perfbench.Main",
    ]
    if a.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", str(a.trace), "--out", reports]
    budget = max(10.0, RUN_LIMIT_S - (time.monotonic() - t0))
    if a.self_test:
        log_path = os.path.join(reports, "self-test.log")
    else:
        log_path = os.path.join(
            reports, "%s-seed%d-trace%d.log" % (a.workload, a.seed, a.trace))
    lines = []
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=build.ROOT)
    # If this script is stopped, stop the JVM with it.
    signal.signal(signal.SIGTERM, lambda *_: (proc.kill(), proc.wait(), sys.exit(1)))
    timer = threading.Timer(budget, proc.kill)
    timer.start()
    try:
        with open(log_path, "w") as log:
            for line in proc.stdout:
                lines.append(line.rstrip("\n"))
                log.write(line)
                if not line.startswith("{"):
                    print(line, end="", flush=True)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    if a.self_test:
        return code
    if code != 0:
        print("perfbench: benchmark JVM exited with code %d" % code, file=sys.stderr)
        return 1
    result = lines[-1] if lines else ""
    try:
        parsed = json.loads(result)
    except ValueError:
        print("perfbench: no result line", file=sys.stderr)
        return 1
    print(json.dumps(parsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
