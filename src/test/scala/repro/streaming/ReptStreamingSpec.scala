package repro.streaming

import repro.{Ref, SparkSpec}
import repro.core.{EdgeStream, Rept}

class ReptStreamingSpec extends SparkSpec {

  private def streamOf(edges: Seq[(Int, Int)]): Array[Long] =
    edges.map { case (u, v) => EdgeStream.key(u, v) }.toArray

  private lazy val edges = Ref.cliquePlusNoise(8, 24, 60, 202)
  private lazy val stream = streamOf(edges)

  private def assertMatchesBatch(m: Int, c: Int, seed: Long, batchSize: Int): Unit = {
    val batch = Rept.run(stream, m, c, seed)
    val live = ReptStreaming.run(spark, stream, m, c, seed, batchSize)
    assert(live.tauHat == batch.tauHat, s"global m=$m c=$c batch=$batchSize")
    assert(live.perProcTau.toSeq == batch.perProcTau.toSeq)
    assert(live.perProcEta.toSeq == batch.perProcEta.toSeq)
    val expected = batch.tauVHat.filter(_._2 != 0.0)
    val got = live.tauVHat.filter(_._2 != 0.0)
    assert(got.keySet == expected.keySet)
    for ((k, v) <- expected) assert(math.abs(got(k) - v) < 1e-9, s"node $k")
  }

  test("streaming equals batch for c <= m") {
    assertMatchesBatch(4, 3, 5, batchSize = 40)
  }

  test("streaming equals batch for c = m") {
    assertMatchesBatch(3, 3, 7, batchSize = 25)
  }

  test("streaming equals batch for c > m with leftover group (eta path)") {
    assertMatchesBatch(2, 5, 9, batchSize = 30)
  }

  test("result is invariant to micro-batch size") {
    val a = ReptStreaming.run(spark, stream, 3, 2, 11, batchSize = 17)
    val b = ReptStreaming.run(spark, stream, 3, 2, 11, batchSize = 100)
    assert(a.tauHat == b.tauHat)
    assert(a.perProcTau.toSeq == b.perProcTau.toSeq)
    assert(a.tauVHat == b.tauVHat)
  }

  test("state persists across many tiny batches") {
    for ((m, c) <- Seq((1, 1), (1, 2))) { // m = 1 is exact for any c
      val r = ReptStreaming.run(spark, stream, m, c, 3, batchSize = 13)
      assert(r.tauHat == Ref.tau(edges).toDouble, s"m=$m c=$c")
      assert(r.snapshotsPerProc == math.ceil(stream.length / 13.0).toInt, s"m=$m c=$c")
    }
  }
}
