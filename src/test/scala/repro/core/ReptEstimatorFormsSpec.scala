package repro.core

import repro.SparkSpec

import scala.util.Random

/** The two forms of `ReptEstimator.estimateLocals` (in memory and Catalyst)
  * agree exactly on random counter rows in every layout regime.
  */
class ReptEstimatorFormsSpec extends SparkSpec {
  import ReptEstimator._

  /** Random rows of the c processors: up to 12 nodes each, plus node 99,
    * counted only by the last processor and without pairs — in the c > m,
    * c₂ ≠ 0 regime it has t1 = 0 and η = 0, so both weights vanish.
    */
  private def randomRows(rng: Random, c: Int): Seq[LocalCounters] =
    (0 until c).flatMap { p =>
      Seq.fill(rng.nextInt(13))(rng.nextInt(30)).distinct.map(v =>
        LocalCounters(p, v, 1L + rng.nextInt(50), rng.nextInt(3) * rng.nextInt(200).toLong))
    } :+ LocalCounters(c - 1, 99, 1L + rng.nextInt(50), 0L)

  test("property: in-memory and Catalyst local estimates agree in every layout regime") {
    import spark.implicits._
    val rng = new Random(2024)
    val samples = 8
    for (m <- Seq(2, 3, 5); c <- Seq(m - 1, m, 2 * m, 2 * m + 1 + rng.nextInt(m - 1))) {
      val lay = Layout(m, c)
      val rows = (0 until samples).map(_ => randomRows(rng, c))
      val expected = rows.map(estimateLocals(lay, _))
      if (lay.needsEta)
        for ((rs, est) <- rows.zip(expected)) // the unweighted-mean fallback
          assert(est(99) == estimateCleM(m, lay.c2, rs.last.tau) / 2, s"m=$m c=$c")
      val tagged = rows.zipWithIndex.flatMap { case (rs, i) =>
        rs.map(r => (i, r.proc, r.node, r.tau, r.eta))
      }.toDF("sample", "proc", "node", "tau", "eta")
      val got = estimateLocals(lay, tagged, Seq("sample")).collect()
        .groupBy(_.getAs[Int]("sample"))
        .map { case (i, rs) => i -> rs.map(r => r.getAs[Int]("node") -> r.getAs[Double]("estimate")).toMap }
      for (i <- 0 until samples)
        assert(got(i) == expected(i), s"m=$m c=$c sample=$i")
    }
  }
}
