package repro.harness

import org.apache.spark.sql.{DataFrame, Encoders, SparkSession}
import org.apache.spark.sql.functions._
import repro.baselines.{GpsInStreamProcessor, MascotProcessor, ParallelBaseline, TriestImprProcessor}
import repro.core.{EdgeStream, Rept, ReptEstimator}

/** Repeated-trial experiment runner behind every accuracy table, and the one
  * Spark fan-out that runs streaming engines (`ReptSpark.run` goes through it
  * too).
  *
  * One invocation sweeps a whole list of processor counts `cs` at fixed
  * m = 1/p. The key reuse property: processor i's counters do not depend on
  * c (REPT's processor i is `Rept.processor(m, i, seed, _)` in every layout;
  * a baseline's processor i has its own seed), so maxC processors per
  * (method, trial) serve every c in the sweep: the c-processor estimate reads
  * processor prefix 0..c−1, through `ReptEstimator` for REPT and as the mean
  * of the per-processor estimates for a baseline.
  *
  * Tasks (one engine pass each) across all methods and trials run one per
  * Spark partition with mapPartitions over the broadcast edge stream;
  * counter rows come back as a cached DataFrame from which global estimates
  * (driver) and per-node estimate DataFrames (Catalyst aggregations) are
  * assembled per (method, c).
  *
  * Budgets follow Section IV-B: MASCOT samples with p = 1/m; Trièst gets
  * budget |E|/m; GPS gets |E|/(2m) (weights cost the other half of its
  * memory).
  */
object TrialHarness {

  val ReptName   = "REPT"
  val MascotName = "MASCOT"
  val TriestName = "TRIEST"
  val GpsName    = "GPS"

  /** One engine pass: processor `proc` of (method, trial), whose runs are
    * seeded `seed`.
    */
  final case class Task(method: String, trial: Int, proc: Int, seed: Long)

  /** Counter row of processor `proc`: node = −1 for its globals, node ≥ 0
    * for that node's local counters. REPT: tau, eta are τ⁽ⁱ⁾, η⁽ⁱ⁾ (or
    * τ_v⁽ⁱ⁾, η_v⁽ⁱ⁾), x = 0. Baselines: x is the processor's (already scaled)
    * estimate, tau = eta = 0.
    */
  final case class CounterRow(method: String, trial: Int, proc: Int, node: Int,
                              tau: Long, eta: Long, x: Double)

  final case class Config(
      m: Int,
      cs: Seq[Int],
      trials: Int,
      seed: Long,
      methods: Seq[String],
      locals: Boolean,
  ) {
    require(cs.nonEmpty && cs.forall(_ >= 1), s"bad cs: $cs")
    val maxC: Int = cs.max
    /** η tracking needed if any c > m has a leftover group. */
    val needsEta: Boolean = cs.exists(c => ReptEstimator.Layout(m, c).needsEta)
  }

  final case class Result(cfg: Config, raw: DataFrame) {

    /** `raw` read as one partition: the rows are few next to the engine work
      * that made them, and an aggregation over them then shuffles from one
      * map task instead of one per engine task.
      */
    private lazy val counters = raw.coalesce(1)

    /** Per-trial global estimates for (method, c). */
    lazy val globals: Map[(String, Int), Seq[Double]] = {
      val rows = counters.where(col("node") === -1).as[CounterRow](Encoders.product[CounterRow])
        .collect().map(r => (r.method, r.trial, r.proc) -> r).toMap
      (for (method <- cfg.methods; c <- cfg.cs) yield {
        val perTrial = (0 until cfg.trials).map { trial =>
          val procs = (0 until c).map(i => rows((method, trial, i)))
          if (method == ReptName)
            ReptEstimator.estimateGlobal(cfg.m, c, procs.map(_.tau), procs.map(_.eta))
          else procs.map(_.x).sum / c
        }
        (method, c) -> perTrial
      }).toMap
    }

    /** Per-(trial, node) estimate DataFrame for (method, c); None when the
      * run was configured without locals.
      */
    def localEstimates(method: String, c: Int): Option[DataFrame] = {
      if (!cfg.locals) return None
      val rows = counters.where(col("node") =!= -1 && col("method") === method && col("proc") < c)
      Some(
        if (method == ReptName)
          ReptEstimator.estimateLocals(ReptEstimator.Layout(cfg.m, c), rows, Seq("trial"))
        else rows.groupBy("trial", "node").agg((sum("x") / c) as "estimate"))
    }
  }

  /** Seed for one (method, trial): methods and trials draw independent
    * randomness from the sweep's base seed.
    */
  def trialSeed(base: Long, method: String, trial: Int): Long =
    EdgeStream.mix64(base ^ (method.hashCode.toLong << 32) ^ (trial + 1).toLong)

  /** Launch the sweep. Call `result.raw.unpersist()` when done. */
  def run(spark: SparkSession, stream: Array[Long], cfg: Config): Result = {
    val tasks: Seq[Task] = for {
      method <- cfg.methods
      trial <- 0 until cfg.trials
      proc <- 0 until cfg.maxC
    } yield Task(method, trial, proc, trialSeed(cfg.seed, method, trial))
    Result(cfg, fanOut(spark, stream, tasks, cfg.m, cfg.needsEta, cfg.locals))
  }

  /** Run every task as its own Spark partition over the broadcast stream and
    * return their counter rows as a cached, materialised DataFrame. REPT
    * processors track η when `needsEta`; local rows are emitted when `locals`.
    */
  def fanOut(spark: SparkSession, stream: Array[Long], tasks: Seq[Task], m: Int,
             needsEta: Boolean, locals: Boolean): DataFrame = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(stream)
    val rows = spark.sparkContext.parallelize(tasks, tasks.size)
      .mapPartitions(_.flatMap(t => runTask(t, bc.value, m, needsEta, locals)))
      .toDF()
      .cache()
    rows.count() // materialise before callers branch off it
    rows
  }

  /** Execute one task. */
  def runTask(t: Task, stream: Array[Long], m: Int, needsEta: Boolean,
              locals: Boolean): Iterator[CounterRow] = t.method match {
    case ReptName =>
      val p = Rept.processor(m, t.proc, t.seed, needsEta).processStream(stream)
      val l = if (!locals) Iterator.empty else p.localCounters(t.proc).map(r =>
        CounterRow(t.method, t.trial, t.proc, r.node, r.tau, r.eta, 0.0))
      Iterator.single(CounterRow(t.method, t.trial, t.proc, -1, p.tau, p.eta, 0.0)) ++ l
    case MascotName =>
      val e = new MascotProcessor(1.0 / m, procSeed(t)).processStream(stream)
      emitBaseline(t, e.tauHat, if (locals) e.tauVHat else Map.empty[Int, Double])
    case TriestName =>
      val budget = math.max(2, math.round(stream.length.toDouble / m).toInt)
      val e = new TriestImprProcessor(budget, procSeed(t)).processStream(stream)
      emitBaseline(t, e.tauHat, if (locals) e.tauVHat else Map.empty[Int, Double])
    case GpsName =>
      val budget = math.max(1, math.round(stream.length.toDouble / (2.0 * m)).toInt)
      val e = new GpsInStreamProcessor(budget, procSeed(t)).processStream(stream)
      emitBaseline(t, e.tauHat, if (locals) e.tauVHat else Map.empty[Int, Double])
    case other => throw new IllegalArgumentException(s"unknown method $other")
  }

  private def procSeed(t: Task): Long = ParallelBaseline.procSeed(t.seed, t.proc)

  private def emitBaseline(t: Task, tauHat: Double,
                           tauVHat: collection.Map[Int, Double]): Iterator[CounterRow] =
    Iterator.single(CounterRow(t.method, t.trial, t.proc, -1, 0L, 0L, tauHat)) ++
      tauVHat.iterator.map { case (v, x) => CounterRow(t.method, t.trial, t.proc, v, 0L, 0L, x) }
}
