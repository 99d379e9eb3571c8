package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.SparkSession

/** Benchmark entry point (launched by run.py):
  *
  *   --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  *   --self-test
  *
  * Prints an environment line, one line per pass (warm-up and timed apart),
  * check results, and as its last line the JSON result object.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: String, selfTest: Boolean)

  def parse(args: Array[String]): Args = {
    val kv = args.sliding(2, 1).collect { case Array(k, v) if k.startsWith("--") => k -> v }.toMap
    Args(kv.getOrElse("--workload", ""), kv.getOrElse("--seed", "1").toLong,
      kv.getOrElse("--seconds", "10").toDouble, kv.getOrElse("--trace", "0") == "1",
      kv.getOrElse("--out", "."), args.contains("--self-test"))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val selfTest = SelfTest.run()
    selfTest.foreach(f => println(s"self-test FAILED: $f"))
    if (args.selfTest) {
      println(s"self-test: ${SelfTest.Cases - selfTest.size}/${SelfTest.Cases} passed")
      sys.exit(if (selfTest.isEmpty) 0 else 1)
    }
    val w = Workloads.byName(args.workload).getOrElse {
      System.err.println(s"unknown workload '${args.workload}'; choose one of " +
        Workloads.all.map(_.name).mkString(", "))
      sys.exit(2)
    }
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val tracer = new Tracer(args.trace)
    val (spark, sessionS) = Workloads.timed(tracer.span("setup.session")(session()))
    val sessionReadyS = (System.currentTimeMillis() - jvmStartMs) / 1e3
    try {
      val cores = spark.sparkContext.defaultParallelism
      val ctx = Ctx(spark, tracer, args.seed, cores)
      println("env " + Json.obj(Seq(
        "workload" -> Json.str(w.name), "seed" -> args.seed.toString,
        "trace" -> (if (args.trace) "1" else "0"), "seconds" -> Json.num(args.seconds),
        "nproc" -> Runtime.getRuntime.availableProcessors.toString,
        "spark_cores" -> cores.toString,
        "heap_max_bytes" -> Runtime.getRuntime.maxMemory.toString,
        "jdk" -> Json.str(System.getProperty("java.version")),
        "spark" -> Json.str(spark.version),
        "shuffle_partitions" -> Json.str(spark.conf.get("spark.sql.shuffle.partitions")))))
      val result = Runner(ctx, w, args, sessionReadyS, sessionS).run()
      val trace = Paths.get(args.out, s"trace-${w.name}-seed${args.seed}.json")
      if (args.trace) {
        Files.createDirectories(trace.getParent)
        Files.write(trace, tracer.toJson.getBytes(StandardCharsets.UTF_8))
        println(s"trace written: ${trace}")
      }
      val selfFailed = if (selfTest.isEmpty) 0 else 1
      println(result.copy(failed = math.min(result.attempted, result.failed + selfFailed),
        correct = result.correct && selfTest.isEmpty).json)
    } finally spark.stop()
  }

  /** The session the repo's own test harness uses: local[*], 64 shuffle
    * partitions, no broadcast joins, UI off.
    */
  def session(): SparkSession =
    SparkSession.builder()
      .master("local[*]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.streaming.forceDeleteTempCheckpointLocation", "true")
      .getOrCreate()
}

/** The result line: correctness, operation counts and the metrics. */
final case class Result(correct: Boolean, attempted: Int, failed: Int,
                        metrics: Seq[(String, Double, String)]) {
  def json: String = Json.obj(Seq(
    "correct" -> correct.toString, "attempted" -> attempted.toString, "failed" -> failed.toString,
    "metrics" -> Json.obj(metrics.map { case (n, v, u) =>
      n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
    })))
}
