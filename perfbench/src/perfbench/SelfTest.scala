package perfbench

import repro.core.{EdgeStream, Rept}
import repro.graphgen.GraphGen

/** Self-tests of the benchmark's own statistics and check code on fixed
  * synthetic inputs. They run at the start of every benchmark run (a failure
  * makes the run incorrect) and alone with `run.py --self-test`.
  */
object SelfTest {

  private def near(a: Double, b: Double) = math.abs(a - b) <= 1e-12 * math.max(1.0, math.abs(b))

  private val cases: Seq[(String, () => Boolean)] = Seq(
    "median of odd and even counts" -> (() =>
      Stats.median(Seq(5.0, 1.0, 3.0)) == 3.0 && Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5),
    "percentile support needs ten samples beyond it" -> (() =>
      Stats.supportedPercentile(19).isEmpty && Stats.supportedPercentile(20).contains(50.0) &&
        Stats.supportedPercentile(99).contains(50.0) && Stats.supportedPercentile(100).contains(90.0) &&
        Stats.supportedPercentile(1000).contains(99.0) && Stats.supportedPercentile(10000).contains(99.9)),
    "nearest-rank percentile" -> (() =>
      Stats.percentile((1 to 100).map(_.toDouble), 90) == 90.0 &&
        Stats.percentile(Seq(7.0), 50) == 7.0),
    // One task of 2 s in a 2 s job on 4 cores keeps a quarter of them busy.
    "busy share" -> (() =>
      near(Stats.busyShare(Seq(2.0), 2.0, 4), 0.25) &&
        near(Stats.busyShare(Seq(1.0, 1.0, 1.0, 1.0), 1.0, 4), 1.0)),
    // Stage walls 3 s and 1 s with longest tasks 2.5 s and 1.2 s: 0.5 + 0.
    "scheduling time" -> (() => near(Stats.schedSeconds(Seq((3.0, 2.5), (1.0, 1.2))), 0.5)),
    // Counts 10, 20, 30 against mean 20: (100 + 0 + 100)/20 = 10.
    "chi-square hash balance" -> (() =>
      near(Stats.chi2Uniform(Seq(10L, 20L, 30L)), 10.0) && Stats.chi2Uniform(Seq(7L, 7L)) == 0.0),
    "interval union for self time" -> (() =>
      Stats.coveredLength(Seq((0L, 4L), (2L, 6L), (8L, 20L)), 1L, 10L) == 7L),
    "check code flags a wrong estimate" -> (() => {
      // K₃₀ (τ = 4,060) through stream-comm's check: the reference result
      // itself passes; a τ̂ off by one or one wrong local estimate fails.
      val stream = GraphGen.completeGraphEdges(30).map { case (u, v) => EdgeStream.key(u, v) }.toArray
      val w = Workloads.StreamComm
      val ref = Rept.run(stream, w.m, w.c, 1L, locals = true)
      def pass(tauHat: Double, locals: Map[Int, Double]) = Pass(0.0, Seq(Job("c", Seq(w.c), 0L, 0L, 0L,
        JobOut(Seq(tauHat), ref.perProcTau.toSeq, ref.perProcEta.toSeq, locals, Map.empty))))
      val in = Input(stream, 4060L)
      w.check(in, pass(ref.tauHat, ref.tauVHat), ref).isEmpty &&
        w.check(in, pass(ref.tauHat + 1, ref.tauVHat), ref).nonEmpty &&
        w.check(in, pass(ref.tauHat, ref.tauVHat.updated(0, ref.tauVHat.getOrElse(0, 0.0) + 0.5)), ref).nonEmpty
    }),
    "relative closeness" -> (() =>
      !Workloads.close(1000.0, 1000.5) && Workloads.close(1000.0, 1000.0 + 1e-7) &&
        Workloads.sameLocals(Map(1 -> 3.0, 2 -> 1.0), Map(1 -> 3.0)).isDefined &&
        Workloads.sameLocals(Map(1 -> 3.0), Map(1 -> 3.0, 2 -> 0.0)).isEmpty),
    // τ = 900, m = 10, c = 10: sqrt(9/900) = 0.1.
    "Theorem 3 NRMSE" -> (() => near(Workloads.theorem3Nrmse(900L, 10, 10), 0.1)),
  )

  val Cases: Int = cases.size

  /** Names of the failing cases. */
  def run(): Seq[String] = cases.collect { case (name, f) if !f() => name }
}
