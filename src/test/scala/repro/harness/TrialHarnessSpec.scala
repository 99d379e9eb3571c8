package repro.harness

import repro.{Ref, SparkSpec}
import repro.baselines.ParallelBaseline
import repro.core.{EdgeStream, Rept}

class TrialHarnessSpec extends SparkSpec {
  import TrialHarness._

  private def streamOf(edges: Seq[(Int, Int)]): Array[Long] =
    edges.map { case (u, v) => EdgeStream.key(u, v) }.toArray

  private lazy val edges = Ref.cliquePlusNoise(9, 30, 80, 321)
  private lazy val stream = streamOf(edges)

  test("config derives the sweep shape") {
    val cfg = Config(5, Seq(2, 5, 12), 3, 1, Seq(ReptName), locals = false)
    assert(cfg.maxC == 12 && cfg.needsEta) // 12 = 2*5+2
    val cfg2 = Config(5, Seq(5, 10), 3, 1, Seq(ReptName), locals = false)
    assert(!cfg2.needsEta)
    intercept[IllegalArgumentException] { Config(5, Nil, 1, 1, Seq(ReptName), locals = false) }
  }

  test("sweep REPT estimates equal dedicated Rept.run with the matching seed") {
    val m = 4
    val cs = Seq(2, 4, 8, 10) // covers c<m, c=m, c=2m, c>m with leftover
    val cfg = Config(m, cs, 3, 99, Seq(ReptName), locals = false)
    val res = TrialHarness.run(spark, stream, cfg)
    for (c <- cs; trial <- 0 until cfg.trials) {
      val ts = trialSeed(99, ReptName, trial)
      val expected = Rept.run(stream, m, c, ts, locals = false).tauHat
      val got = res.globals((ReptName, c))(trial)
      assert(math.abs(got - expected) < 1e-9, s"c=$c trial=$trial got=$got exp=$expected")
    }
    res.raw.unpersist()
  }

  test("sweep baseline estimates equal ParallelBaseline runs with matching seeds") {
    val m = 3
    val cs = Seq(1, 3)
    val cfg = Config(m, cs, 2, 55, Seq(MascotName, TriestName, GpsName), locals = false)
    val res = TrialHarness.run(spark, stream, cfg)
    val nE = stream.length
    for (trial <- 0 until cfg.trials; c <- cs) {
      val tsM = trialSeed(55, MascotName, trial)
      assert(math.abs(res.globals((MascotName, c))(trial) -
        ParallelBaseline.runMascot(stream, 1.0 / m, c, tsM).tauHat) < 1e-9)
      val tsT = trialSeed(55, TriestName, trial)
      assert(math.abs(res.globals((TriestName, c))(trial) -
        ParallelBaseline.runTriest(stream, math.max(2, math.round(nE.toDouble / m).toInt),
          c, tsT).tauHat) < 1e-9)
      val tsG = trialSeed(55, GpsName, trial)
      assert(math.abs(res.globals((GpsName, c))(trial) -
        ParallelBaseline.runGps(stream, math.max(1, math.round(nE / (2.0 * m)).toInt),
          c, tsG).tauHat) < 1e-9)
    }
    res.raw.unpersist()
  }

  test("sweep REPT local estimates equal dedicated Rept.run locals") {
    val m = 4
    val cs = Seq(3, 10) // c<m and c>m-with-leftover paths
    val cfg = Config(m, cs, 2, 77, Seq(ReptName), locals = true)
    val res = TrialHarness.run(spark, stream, cfg)
    for (c <- cs; trial <- 0 until cfg.trials) {
      val ts = trialSeed(77, ReptName, trial)
      val expected = Rept.run(stream, m, c, ts).tauVHat.filter(_._2 != 0.0)
      val got = res.localEstimates(ReptName, c).get
        .where(org.apache.spark.sql.functions.col("trial") === trial)
        .collect().map(r => r.getAs[Int]("node") -> r.getAs[Double]("estimate"))
        .toMap.filter(_._2 != 0.0)
      assert(got.keySet == expected.keySet, s"c=$c trial=$trial")
      for ((k, v) <- expected)
        assert(math.abs(got(k) - v) < 1e-9, s"c=$c trial=$trial node=$k")
    }
    res.raw.unpersist()
  }

  test("sweep baseline local estimates equal ParallelBaseline local means") {
    val m = 3
    val c = 2
    val cfg = Config(m, Seq(c), 1, 33, Seq(MascotName), locals = true)
    val res = TrialHarness.run(spark, stream, cfg)
    val ts = trialSeed(33, MascotName, 0)
    val expected = ParallelBaseline.runMascot(stream, 1.0 / m, c, ts).tauVHat
      .filter(_._2 != 0.0)
    val got = res.localEstimates(MascotName, c).get.collect()
      .map(r => r.getAs[Int]("node") -> r.getAs[Double]("estimate")).toMap
      .filter(_._2 != 0.0)
    assert(got.keySet == expected.keySet)
    for ((k, v) <- expected) assert(math.abs(got(k) - v) < 1e-9, s"node=$k")
    res.raw.unpersist()
  }

  test("locals=false yields no local estimates") {
    val cfg = Config(3, Seq(2), 1, 1, Seq(ReptName), locals = false)
    val res = TrialHarness.run(spark, stream, cfg)
    assert(res.localEstimates(ReptName, 2).isEmpty)
    res.raw.unpersist()
  }

  test("unknown method names fail fast") {
    val cfg = Config(3, Seq(2), 1, 1, Seq("NOPE"), locals = false)
    intercept[Exception] {
      TrialHarness.run(spark, stream, cfg).globals
    }
  }

  test("trialSeed decorrelates methods and trials") {
    assert(trialSeed(1, ReptName, 0) != trialSeed(1, ReptName, 1))
    assert(trialSeed(1, ReptName, 0) != trialSeed(1, MascotName, 0))
    assert(trialSeed(1, ReptName, 0) == trialSeed(1, ReptName, 0))
  }
}
