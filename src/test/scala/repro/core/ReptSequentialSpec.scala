package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Ref

class ReptSequentialSpec extends AnyFunSuite {

  private def streamOf(edges: Seq[(Int, Int)]): Array[Long] =
    edges.map { case (u, v) => EdgeStream.key(u, v) }.toArray

  private val edges = Ref.cliquePlusNoise(9, 30, 70, 101)
  private val stream = streamOf(edges)

  test("m=1, c=1 run is exact for global and local counts") {
    val r = Rept.run(stream, 1, 1, 42)
    assert(r.tauHat == Ref.tau(edges).toDouble)
    assert(r.tauVHat.view.mapValues(_.toLong).toMap == Ref.tauV(edges))
  }

  test("same seed gives identical results; different seeds differ") {
    val a = Rept.run(stream, 4, 3, 7)
    val b = Rept.run(stream, 4, 3, 7)
    val c = Rept.run(stream, 4, 3, 8)
    assert(a.tauHat == b.tauHat && a.perProcTau.toSeq == b.perProcTau.toSeq)
    assert(a.perProcTau.toSeq != c.perProcTau.toSeq) // overwhelmingly likely
  }

  test("c <= m: estimate matches the m^2/c formula over per-processor counters") {
    val r = Rept.run(stream, 5, 3, 11)
    assert(r.perProcTau.length == 3)
    assert(r.tauHat == 25.0 / 3 * r.perProcTau.sum)
  }

  test("c = 2m: two independent full groups, m/c1 scaling") {
    val r = Rept.run(stream, 3, 6, 13)
    assert(r.perProcTau.length == 6)
    assert(r.tauHat == 3.0 / 2 * r.perProcTau.sum)
    // Groups use different hash seeds: slots 0..2 vs 3..5 come from
    // different partitions of the sampled edges.
    val g0 = r.perProcTau.take(3).toSeq; val g1 = r.perProcTau.drop(3).toSeq
    assert(g0.sum >= 0 && g1.sum >= 0)
  }

  test("c > m with leftover: estimator combines and stays finite and nonnegative") {
    val r = Rept.run(stream, 3, 8, 17) // c1=2, c2=2
    assert(r.perProcTau.length == 8 && r.perProcEta.length == 8)
    assert(!r.tauHat.isNaN && r.tauHat >= 0)
  }

  test("locals=false suppresses local map computation") {
    val r = Rept.run(stream, 4, 4, 19, locals = false)
    assert(r.tauVHat.isEmpty && r.tauHat >= 0)
  }

  test("nodes with local estimates are genuine triangle members") {
    val r = Rept.run(stream, 3, 3, 23)
    val triNodes = Ref.tauV(edges).keySet
    assert(r.tauVHat.keySet.subsetOf(triNodes))
  }

  test("local estimates are nonnegative in every layout regime") {
    for ((m, c) <- Seq((4, 2), (4, 4), (3, 6), (3, 8))) {
      val r = Rept.run(stream, m, c, 29)
      assert(r.tauVHat.values.forall(x => x >= 0 && !x.isNaN), s"m=$m c=$c")
    }
  }

  test("Rept.run equals independent processors; processor p does not depend on c") {
    val m = 4; val seed = 37L
    val cs = Seq(3, 4, 8, 10) // c < m, c = m, c = 2m, c > m with a leftover group
    val runs = cs.map(c => c -> Rept.run(stream, m, c, seed, locals = false)).toMap
    for (c <- cs; p <- 0 until c) {
      val proc = Rept.processor(m, p, seed, ReptEstimator.Layout(m, c).needsEta)
        .processStream(stream)
      assert(runs(c).perProcTau(p) == proc.tau, s"tau c=$c p=$p")
      assert(runs(c).perProcEta(p) == proc.eta, s"eta c=$c p=$p")
    }
    // The sweep's prefix reuse: the widest layout's processors serve every c.
    for (c <- cs.init)
      assert(runs(c).perProcTau.toSeq == runs(cs.last).perProcTau.take(c).toSeq, s"c=$c")
  }

  test("groupSeed decorrelates groups and is deterministic") {
    assert(Rept.groupSeed(5, 0) == Rept.groupSeed(5, 0))
    assert(Rept.groupSeed(5, 0) != Rept.groupSeed(5, 1))
    assert(Rept.groupSeed(5, 0) != Rept.groupSeed(6, 0))
  }

  test("global estimate equals scaled local sum / 3 in the single-group case") {
    // Each semi-triangle contributes 3 to Σ_v τ_v⁽ⁱ⁾, so the scaled local sum
    // is 3× the global estimate.
    val r = Rept.run(stream, 4, 4, 31)
    assert(math.abs(r.tauVHat.values.sum - 3.0 * r.tauHat) < 1e-6)
  }
}
