package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{EdgeStream, Rept, ReptEstimator, ReptProcessor, ReptSpark}
import repro.exact.ExactTriangles
import repro.graphgen.GraphGen
import repro.harness.{BenchGraphs, TrialHarness}
import repro.stats.ErrorMetrics
import repro.streaming.ReptStreaming

/** Shared state of one benchmark process. */
final case class Ctx(spark: SparkSession, tracer: Tracer, seed: Long, cores: Int)

/** The fixed input of a workload: its edge stream and exact τ. */
final case class Input(stream: Array[Long], tau: Long)

/** One public run call of a pass and its estimate combination: its processor
  * counts, when the run call returned, wall time and the output the checks
  * compare.
  */
final case class Job(label: String, cs: Seq[Int], startNs: Long, runEndNs: Long, endNs: Long,
                     out: JobOut) {
  def seconds: Double = (endNs - startNs) / 1e9
  /** Time inside the public run call alone, without the combination. */
  def runSeconds: Double = (runEndNs - startNs) / 1e9
}

/** Everything a job returns that the checks look at. `locals` maps node →
  * local estimate; `extra` holds workload-specific derived values (NRMSE).
  */
final case class JobOut(tauHat: Seq[Double], perProcTau: Seq[Long], perProcEta: Seq[Long],
                        locals: Map[Int, Double], extra: Map[String, Double])

final case class Pass(seconds: Double, jobs: Seq[Job]) {
  def runSeconds: Double = jobs.map(_.runSeconds).sum
}

/** A workload: how to build its input, one closed-loop pass over its jobs,
  * and the reference checks of a pass's outputs.
  */
trait Workload {
  def name: String
  def m: Int
  /** Untimed passes before the measured ones, past the JIT and Spark drift
    * seen in long runs (README, "Warm-up").
    */
  def warmupPasses: Int
  /** Public run calls in one pass. */
  def jobsPerPass: Int
  /** Input edges one pass hands to the program (edges × public calls). */
  def edgesPerPass(in: Input): Long
  def buildStream(spark: SparkSession): Array[Long]
  def pass(ctx: Ctx, in: Input): Pass
  /** What the checks compare a pass against. */
  type Ref
  /** Reference computations for the checks; the runner makes them after the
    * measured passes.
    */
  def references(ctx: Ctx, in: Input): Ref
  /** Checks of one pass; each returned string is one failed check. */
  def check(in: Input, p: Pass, ref: Ref): Seq[String]
  /** Releases what a run call left cached in Spark: after each job, inside
    * the pass.
    */
  def cleanup(ctx: Ctx): Unit = ctx.spark.catalog.clearCache()

  /** Set-up: builds and collects the stream, then its exact τ with the
    * Catalyst counter. Returns the input and the two times.
    */
  def setup(ctx: Ctx): (Input, Double, Double) = {
    val (stream, graphS) = Workloads.timed(ctx.tracer.span("setup.graph")(buildStream(ctx.spark)))
    val (tau, exactS) =
      Workloads.timed(ctx.tracer.span("setup.exact")(
        ExactTriangles.tau(EdgeStream.toDF(ctx.spark, stream))))
    (Input(stream, tau), graphS, exactS)
  }
}

object Workloads {

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  val all: Seq[Workload] = Seq(BatchWeb, StreamComm)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** A job span: the public call as "spark.run", then the combination step
    * as the span `combineSpan`.
    */
  private def job[A](ctx: Ctx, label: String, cs: Seq[Int], combineSpan: String)(run: => A)(
      combine: A => JobOut): Job = {
    val t0 = System.nanoTime()
    var runEnd = 0L
    val out = ctx.tracer.span("job") {
      val a = ctx.tracer.span("spark.run")(run)
      runEnd = System.nanoTime()
      ctx.tracer.span(combineSpan)(combine(a))
    }
    Job(label, cs, t0, runEnd, System.nanoTime(), out)
  }

  def close(a: Double, b: Double, rel: Double = 1e-9): Boolean =
    math.abs(a - b) <= rel * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  def sameLocals(got: Map[Int, Double], want: collection.Map[Int, Double]): Option[String] = {
    val bad = (got.keySet ++ want.keySet).iterator
      .filter(n => !close(got.getOrElse(n, 0.0), want.getOrElse(n, 0.0)))
    if (bad.hasNext) {
      val n = bad.next()
      Some(s"node $n: got ${got.getOrElse(n, 0.0)}, reference ${want.getOrElse(n, 0.0)}")
    } else None
  }

  /** Runs independent reference computations on `threads` threads. */
  def parallel[A](threads: Int)(tasks: Seq[() => A]): Seq[A] = {
    val pool = java.util.concurrent.Executors.newFixedThreadPool(threads)
    try {
      val fs = tasks.map(t => pool.submit(new java.util.concurrent.Callable[A] { def call(): A = t() }))
      fs.map(_.get())
    } finally pool.shutdownNow()
  }

  // ------------------------------------------------------------- batch-web

  /** The batch runs on a quarter of web-lite (the same dense communities,
    * 80 nodes at pIn 0.7, and cross-edge share, 25 communities instead of
    * 100): `ReptSpark.run` at c below, equal to and above m with locals on,
    * then one `TrialHarness.run` accuracy sweep with all four methods,
    * globals only.
    */
  object BatchWeb extends Workload {
    val name = "batch-web"
    val m = 10
    val cs: Seq[Int] = Seq(5, 10, 25)
    /** The sweep's processor counts, below and at m. Every baseline runs
      * max(sweepCs) processors per trial, so this sets the sweep's cost.
      */
    val sweepCs: Seq[Int] = Seq(5, 10)
    val trials = 4
    val methods: Seq[String] = Seq(TrialHarness.ReptName, TrialHarness.MascotName,
      TrialHarness.TriestName, TrialHarness.GpsName)
    val jobsPerPass: Int = cs.size + 1
    val warmupPasses = 3
    /** REPT's NRMSE at c ≥ m may exceed the Theorem 3 value by at most this
      * factor. With 4 trials the ratio is distributed as sqrt(χ²₄/4); a factor
      * of 3 is exceeded with probability below 1e-6.
      */
    val Theorem3Factor = 3.0

    def buildStream(spark: SparkSession): Array[Long] =
      EdgeStream.collectStream(GraphGen.plantedCommunities(spark, nCommunities = 25, size = 80,
        pIn = 0.7, nRandom = 7500, seed = 202))

    def edgesPerPass(in: Input): Long = in.stream.length.toLong * jobsPerPass

    def pass(ctx: Ctx, in: Input): Pass = {
      val (jobs, s) = timed(ctx.tracer.span("pass") {
        val spark = cs.map { c =>
          val j = job(ctx, s"c=$c", Seq(c), "combine.locals") {
            ReptSpark.run(ctx.spark, in.stream, m, c, ctx.seed, locals = true)
          } { r =>
            val locals = r.locals.get.collect()
              .map(row => row.getAs[Int]("node") -> row.getAs[Double]("estimate")).toMap
            JobOut(Seq(r.tauHat), r.perProcTau.toSeq, r.perProcEta.toSeq, locals, Map.empty)
          }
          cleanup(ctx)
          j
        }
        val cfg = TrialHarness.Config(m, sweepCs, trials, ctx.seed, methods, locals = false)
        val sweep = job(ctx, "sweep", sweepCs, "combine.globals")(TrialHarness.run(ctx.spark, in.stream, cfg)) { res =>
          val g = res.globals
          val nrmse = for (method <- methods; c <- sweepCs)
            yield s"nrmse.$method.$c" -> ErrorMetrics.nrmse(g((method, c)), in.tau.toDouble)
          res.raw.unpersist()
          JobOut(sweepCs.map(c => g((TrialHarness.ReptName, c)).head), Nil, Nil, Map.empty, nrmse.toMap)
        }
        cleanup(ctx)
        spark :+ sweep
      })
      Pass(s, jobs)
    }

    /** Per processor (group by group, slot by slot) its (τ, η) from an
      * independently run `ReptProcessor`; per c the `Rept.run` result; per c
      * `Rept.run` with the sweep's trial 0 seed.
      */
    type Ref = (Seq[(Long, Long)], Seq[Rept.Result], Seq[Rept.Result])

    def references(ctx: Ctx, in: Input): Ref = {
      val maxLay = ReptEstimator.Layout(m, cs.max)
      val procs = parallel(ctx.cores)(
        for (g <- 0 until maxLay.numGroups; s <- 0 until maxLay.slotsOf(g)) yield () => {
          val proc = new ReptProcessor(m, s, Rept.groupSeed(ctx.seed, g), trackEta = true)
          proc.processStream(in.stream)
          (proc.tau, proc.eta)
        })
      val ts = TrialHarness.trialSeed(ctx.seed, TrialHarness.ReptName, 0)
      (procs, parallel(ctx.cores)(cs.map(c => () => Rept.run(in.stream, m, c, ctx.seed, locals = true))),
        parallel(ctx.cores)(sweepCs.map(c => () => Rept.run(in.stream, m, c, ts, locals = false))))
    }

    def check(in: Input, p: Pass, ref: Ref): Seq[String] =
      checkSpark(p.jobs.init, ref._1, ref._2) ++ checkSweep(in, p.jobs.last, ref._3)

    /** Counters against the `ReptProcessor`s with the same group seeds, τ̂
      * against `ReptEstimator` on those counters, locals against `Rept.run`.
      */
    private def checkSpark(jobs: Seq[Job], procs: Seq[(Long, Long)], repts: Seq[Rept.Result]): Seq[String] =
      jobs.zip(cs).zip(repts).flatMap { case ((j, c), ref) =>
        val lay = ReptEstimator.Layout(m, c)
        // Processor order: group by group, slot by slot (the Layout's order).
        val ids = for (g <- 0 until lay.numGroups; s <- 0 until lay.slotsOf(g)) yield g * m + s
        val refTau = ids.map(i => procs(i)._1)
        val refEta = if (lay.needsEta) ids.map(i => procs(i)._2) else ids.map(_ => 0L)
        val refHat = ReptEstimator.estimateGlobal(m, c, refTau,
          if (lay.needsEta) refEta else Nil)
        Seq(
          Option.when(j.out.perProcTau != refTau)(s"c=$c: perProcTau differs from ReptProcessor"),
          Option.when(j.out.perProcEta != refEta)(s"c=$c: perProcEta differs from ReptProcessor"),
          Option.when(!close(j.out.tauHat.head, refHat))(
            s"c=$c: tauHat ${j.out.tauHat.head} != ReptEstimator $refHat"),
          Option.when(!close(ref.tauHat, refHat))(s"c=$c: Rept.run tauHat ${ref.tauHat} != $refHat"),
          sameLocals(j.out.locals, ref.tauVHat).map(d => s"c=$c: locals differ from Rept.run at $d"),
        ).flatten
      }

    /** Trial 0's REPT estimates against `Rept.run` with the trial seed, and
      * REPT's NRMSE at c ≥ m against the Theorem 3 value.
      */
    private def checkSweep(in: Input, j: Job, refs: Seq[Rept.Result]): Seq[String] = {
      val out = j.out
      val exact = sweepCs.zip(refs).zip(out.tauHat).flatMap { case ((c, ref), got) =>
        Option.when(!close(got, ref.tauHat))(s"sweep c=$c: trial 0 REPT $got != Rept.run ${ref.tauHat}")
      }
      val theorem3 = sweepCs.filter(_ >= m).flatMap { c =>
        val nrmse = out.extra(s"nrmse.${TrialHarness.ReptName}.$c")
        val bound = Theorem3Factor * Workloads.theorem3Nrmse(in.tau, m, c)
        Option.when(!(nrmse <= bound))(f"sweep c=$c: REPT NRMSE $nrmse%.4f above $bound%.4f")
      }
      val finite = out.extra.collect {
        case (k, v) if v.isNaN || v.isInfinite => s"sweep $k is not finite"
      }
      exact ++ theorem3 ++ finite
    }
  }

  /** Theorem 3 NRMSE of REPT at c = c₁·m: sqrt((m − 1)/(τ·c/m)). */
  def theorem3Nrmse(tau: Long, m: Int, c: Int): Double =
    math.sqrt((m - 1.0) / (tau.toDouble * c / m))

  // ----------------------------------------------------------- stream-comm

  /** `ReptStreaming.run` on a small planted-community graph. */
  object StreamComm extends Workload {
    val name = "stream-comm"
    val m = 10
    val c = 10
    val batchSize = 3000
    val jobsPerPass = 1
    val warmupPasses = 3
    /** Generator seed of the graph (5,779 edges, τ = 5,957). */
    val GraphSeed = 77L

    def buildStream(spark: SparkSession): Array[Long] =
      EdgeStream.collectStream(GraphGen.plantedCommunities(spark, nCommunities = 40, size = 20,
        pIn = 0.5, nRandom = 2000, seed = GraphSeed))

    def edgesPerPass(in: Input): Long = in.stream.length.toLong

    def pass(ctx: Ctx, in: Input): Pass = {
      val (jobs, s) = timed(ctx.tracer.span("pass") {
        val j = job(ctx, s"c=$c", Seq(c), "combine") {
          ReptStreaming.run(ctx.spark, in.stream, m, c, ctx.seed, batchSize)
        } { r =>
          JobOut(Seq(r.tauHat), r.perProcTau.toSeq, r.perProcEta.toSeq, r.tauVHat, Map.empty)
        }
        cleanup(ctx)
        Seq(j)
      })
      Pass(s, jobs)
    }

    type Ref = Rept.Result

    def references(ctx: Ctx, in: Input): Ref = Rept.run(in.stream, m, c, ctx.seed, locals = true)

    /** τ̂, counters and locals against `Rept.run` for the same (m, c, seed);
      * τ̂ must be non-zero and within six Theorem 3 standard errors of τ.
      */
    def check(in: Input, p: Pass, ref: Ref): Seq[String] = {
      val out = p.jobs.head.out
      val got = out.tauHat.head
      Seq(
        Option.when(got != ref.tauHat)(s"tauHat $got != Rept.run ${ref.tauHat}"),
        Option.when(out.perProcTau != ref.perProcTau.toSeq)("perProcTau differs from Rept.run"),
        sameLocals(out.locals, ref.tauVHat).map(d => s"locals differ from Rept.run at $d"),
        Option.when(got <= 0)(s"tauHat $got is not positive"),
        Option.when(math.abs(got - in.tau) > 6 * theorem3Nrmse(in.tau, m, c) * in.tau)(
          s"tauHat $got too far from exact τ ${in.tau}"),
      ).flatten
    }
  }
}
