package perfbench

import scala.collection.mutable
import scala.util.{Failure, Success, Try}
import scala.util.control.NonFatal

/** One benchmark run of one workload: set-up, the warm-up passes, passes for
  * the requested seconds (with tracing, the traced passes and the layer
  * probes instead), then the output checks.
  */
final case class Runner(ctx: Ctx, w: Workload, args: Main.Args, sessionReadyS: Double,
                        sessionS: Double) {
  import Stats.median

  private var attempted = 0
  private var failed = 0
  private val failures = mutable.ArrayBuffer.empty[String]
  /** The first measured pass: checked against the references at the end,
    * and every later pass must reproduce it bit for bit.
    */
  private var reference: Option[Pass] = None
  private var passNo = 0

  private def fail(what: String, ops: Int): Unit = {
    failures += what
    failed += ops
    println(s"check FAILED: $what")
  }

  /** Two runs of the same seed disagreed on a work count. */
  def countMismatch(what: String): Unit = fail(what, 1)

  /** Runs one pass. The first measured pass is kept for the checks, later
    * ones must reproduce its outputs bit for bit; warm-up passes are only
    * required not to throw. None if the pass threw.
    */
  private def runPass(kind: String, in: Input, warmup: Boolean = false): Option[Pass] = {
    attempted += w.jobsPerPass
    passNo += 1
    val i = passNo
    val p = try Some(w.pass(ctx, in)) catch {
      case NonFatal(e) =>
        fail(s"$kind pass $i threw ${e.getClass.getSimpleName}: ${e.getMessage}", w.jobsPerPass)
        None
    }
    p.foreach { p =>
      println(f"pass $kind%-8s $i%2d ${p.seconds}%9.4f s  " +
        p.jobs.map(j => f"${j.label} ${j.seconds}%.4f s").mkString("  "))
      if (!warmup) reference match {
        case None => reference = Some(p)
        case Some(ref) =>
          p.jobs.zip(ref.jobs).foreach { case (j, r) =>
            if (j.out != r.out) fail(s"$kind pass $i ${j.label}: output differs from first pass", 1)
          }
      }
    }
    p
  }

  /** Checks the first measured pass against the reference computations. */
  private def checkFirstPass(in: Input): Unit = reference.foreach { p =>
    val (bad, s) = Workloads.timed(Try(w.check(in, p, w.references(ctx, in))) match {
      case Success(b) => b
      case Failure(e) => Seq(s"check threw ${e.getClass.getSimpleName}: ${e.getMessage}")
    })
    bad.foreach(b => fail(b, 0))
    failed += math.min(w.jobsPerPass, bad.size)
    if (bad.isEmpty) println(f"check passed: outputs match their references ($s%.2f s)")
  }

  def run(): Result = {
    val (in, graphS, exactS) = w.setup(ctx)
    val setupS = sessionReadyS + graphS + exactS
    println(f"setup $setupS%.4f s: process start to session $sessionReadyS%.4f s, graph " +
      f"$graphS%.4f s, exact tau $exactS%.4f s; ${in.stream.length} edges, exact tau " +
      in.tau)

    val tracing = ctx.tracer.active
    ctx.tracer.active = false
    (1 to w.warmupPasses).foreach(_ => runPass("warmup", in, warmup = true))
    val metrics =
      if (!tracing) timedPasses(in, setupS)
      else Traced(ctx, w, in, this).metrics(sessionS, graphS, exactS)
    checkFirstPass(in)
    println(s"operations: $attempted attempted, $failed failed")
    Result(failures.isEmpty, math.max(1, attempted), math.min(failed, math.max(1, attempted)),
      metrics)
  }

  /** Passes for the requested seconds (at least one); the ones that ran. */
  def loop(kind: String, in: Input, seconds: Double): Seq[Pass] = {
    val t0 = System.nanoTime()
    val out = mutable.ArrayBuffer.empty[Pass]
    var first = true
    while (first || (System.nanoTime() - t0) / 1e9 < seconds) {
      runPass(kind, in).foreach(out += _)
      first = false
    }
    out.toSeq
  }

  /** The end-to-end metrics: set-up, median pass wall, and input edges per
    * second spent inside the public run calls.
    */
  private def timedPasses(in: Input, setupS: Double): Seq[(String, Double, String)] = {
    val passes = loop("timed", in, args.seconds)
    def med(f: Pass => Double) = if (passes.isEmpty) Double.NaN else median(passes.map(f))
    val wall = med(_.seconds)
    val runS = med(_.runSeconds)
    passes.headOption.foreach(p => println(s"median of ${passes.size} timed passes: " +
      f"pass $wall%.4f s, run calls $runS%.4f s  " + p.jobs.indices.map { i =>
        f"${p.jobs(i).label} ${median(passes.map(_.jobs(i).seconds))}%.4f s"
      }.mkString("  ")))
    Seq(("setup_s", setupS, "s"), ("wall_s", wall, "s"),
      ("edges_per_s", w.edgesPerPass(in) / runS, "edges/s"))
  }
}
