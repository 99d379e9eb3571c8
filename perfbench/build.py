"""Build file of the benchmark package: compiles the program's main sources
together with the benchmark's own Scala sources into one class directory.

It calls the Scala compiler that ships with the Spark distribution directly
(no sbt), so a build touches nothing outside the checkout. Run it alone with

    python3 perfbench/build.py

from the root of a checkout. The class directory is reused while no source
file changes.
"""
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
BENCH_SRC = os.path.join(BENCH_DIR, "src")

# Spark on JDK 17 needs these module opens (the same list as the root build).
JVM_OPENS = [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")
]


class BuildError(Exception):
    pass


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def java_bin():
    home = os.environ.get("JAVA_HOME")
    if home and os.path.exists(os.path.join(home, "bin", "java")):
        return os.path.join(home, "bin", "java")
    found = shutil.which("java")
    if not found:
        raise BuildError("no java on PATH and JAVA_HOME unset")
    return found


def spark_jars_dir():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not os.path.isdir(jars):
        raise BuildError("Spark jars not found: set SPARK_HOME")
    return jars


def spark_classpath():
    jars = spark_jars_dir()
    return sorted(os.path.join(jars, j) for j in os.listdir(jars) if j.endswith(".jar"))


def _sources():
    if not os.path.isdir(PROGRAM_SRC):
        raise BuildError("program sources missing: %s" % os.path.relpath(PROGRAM_SRC, ROOT))
    out = []
    for base in (PROGRAM_SRC, BENCH_SRC):
        for dirpath, _, files in os.walk(base):
            out += [os.path.join(dirpath, f) for f in files if f.endswith(".scala")]
    return sorted(out)


def _stamp(sources, jars):
    h = hashlib.sha256()
    for path in sources + [os.path.abspath(__file__)]:
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    h.update("\n".join(jars).encode())
    return h.hexdigest()


def build(log=sys.stderr):
    """Compile if needed; return the runtime classpath as a list."""
    sources = _sources()
    jars = spark_classpath()
    out = os.path.join(build_dir(), "classes")
    stamp_file = os.path.join(build_dir(), "classes.stamp")
    stamp = _stamp(sources, jars)
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return [out] + jars
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    args_file = os.path.join(build_dir(), "scalac.args")
    with open(args_file, "w") as f:
        f.write("\n".join(["-deprecation", "-d", out, "-classpath", os.pathsep.join(jars)]
                          + sources))
    print("perfbench: compiling %d sources" % len(sources), file=log, flush=True)
    cmd = [java_bin(), "-Xss16m", "-Xmx2g", "-cp", os.pathsep.join(jars),
           "scala.tools.nsc.Main", "@" + args_file]
    res = subprocess.run(cmd, stdout=log, stderr=log)
    if res.returncode != 0:
        raise BuildError("scalac failed with code %d" % res.returncode)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return [out] + jars


if __name__ == "__main__":
    try:
        build()
    except BuildError as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        sys.exit(2)
