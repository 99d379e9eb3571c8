package repro.harness

import org.apache.spark.sql.SparkSession
import repro.baselines.{GpsInStreamProcessor, MascotProcessor, TriestImprProcessor}
import repro.core.ReptProcessor
import repro.stats.ErrorMetrics

/** Builders for every reproduced table (Table II and each evaluation figure
  * rendered as a table), shared by the spark-submit jobs and the bench
  * suites. Each builder returns structured points; `render` turns them into
  * the aligned text tables recorded in EXPERIMENTS.md.
  */
object Tables {

  // ---------------------------------------------------------------- Table II

  final case class DatasetRow(graph: String, nodes: Long, edges: Long, triangles: Long,
                              eta: Long, etaOverTau: Double)

  /** Table II analogue: stats of our synthetic graphs (plus η, which the
    * paper reports in Figure 1).
    */
  def table2(spark: SparkSession, names: Seq[String]): Seq[DatasetRow] =
    names.map { n =>
      val i = BenchGraphs.info(spark, n)
      DatasetRow(n, i.nodes, i.edges, i.tau, i.eta, i.eta.toDouble / math.max(1L, i.tau))
    }

  // ------------------------------------------------------------- Figure 1

  final case class Fig1Row(graph: String, p: Double, tauTerm: Double, etaTerm: Double,
                           ratio: Double)

  /** Figure 1 as numbers: τ(p⁻²−1) vs 2η(p⁻¹−1) — the variance split of
    * parallel MASCOT.
    */
  def fig1(spark: SparkSession, names: Seq[String], ps: Seq[Double]): Seq[Fig1Row] =
    for (n <- names; p <- ps) yield {
      val i = BenchGraphs.info(spark, n)
      val tauTerm = i.tau * (1.0 / (p * p) - 1.0)
      val etaTerm = 2.0 * i.eta * (1.0 / p - 1.0)
      Fig1Row(n, p, tauTerm, etaTerm, etaTerm / tauTerm)
    }

  // ------------------------------------------------- Figures 3–6 (NRMSE)

  final case class ErrorPoint(graph: String, method: String, m: Int, c: Int, nrmse: Double)

  /** Global-count NRMSE sweep (Figures 3 and 4 as tables). */
  def globalError(spark: SparkSession, graphs: Seq[String], m: Int, cs: Seq[Int],
                  trials: Int, methods: Seq[String], seed: Long): Seq[ErrorPoint] =
    graphs.flatMap { g =>
      val info = BenchGraphs.info(spark, g)
      val res = TrialHarness.run(spark, BenchGraphs.stream(spark, g),
        TrialHarness.Config(m, cs, trials, seed, methods, locals = false))
      val pts = for (method <- methods; c <- cs) yield
        ErrorPoint(g, method, m, c, ErrorMetrics.nrmse(res.globals((method, c)), info.tau.toDouble))
      res.raw.unpersist()
      pts
    }

  /** Local-count mean NRMSE sweep (Figures 5 and 6 as tables). */
  def localError(spark: SparkSession, graphs: Seq[String], m: Int, cs: Seq[Int],
                 trials: Int, methods: Seq[String], seed: Long): Seq[ErrorPoint] =
    graphs.flatMap { g =>
      val truth = BenchGraphs.tauVDf(spark, g)
      val res = TrialHarness.run(spark, BenchGraphs.stream(spark, g),
        TrialHarness.Config(m, cs, trials, seed, methods, locals = true))
      val pts = for (method <- methods; c <- cs) yield {
        val est = res.localEstimates(method, c).get
        ErrorPoint(g, method, m, c, ErrorMetrics.meanLocalNrmse(est, truth, trials))
      }
      res.raw.unpersist()
      pts
    }

  // ----------------------------------------------------- Figure 7 (runtime)

  final case class RuntimePoint(method: String, m: Int, seconds: Double)

  private def timeBestOf(reps: Int)(body: () => Unit): Double = {
    body() // warm-up
    (0 until reps).map { _ =>
      val t0 = System.nanoTime(); body(); (System.nanoTime() - t0) / 1e9
    }.min
  }

  /** Per-processor single-pass runtimes (Figure 7 as a table). The paper's
    * parallel wall-clock at fixed c is each method's per-processor pass time
    * (all c processors run concurrently), so that is what we time: one pass
    * of each method's streaming engine.
    */
  def runtime(spark: SparkSession, graph: String, ms: Seq[Int], reps: Int,
              seed: Long): Seq[RuntimePoint] = {
    val stream = BenchGraphs.stream(spark, graph)
    val nE = stream.length
    ms.flatMap { m =>
      Seq(
        RuntimePoint(TrialHarness.ReptName, m, timeBestOf(reps) { () =>
          new ReptProcessor(m, 0, seed).processStream(stream); ()
        }),
        RuntimePoint(TrialHarness.MascotName, m, timeBestOf(reps) { () =>
          new MascotProcessor(1.0 / m, seed).processStream(stream); ()
        }),
        RuntimePoint(TrialHarness.TriestName, m, timeBestOf(reps) { () =>
          new TriestImprProcessor(math.max(2, nE / m), seed).processStream(stream); ()
        }),
        RuntimePoint(TrialHarness.GpsName, m, timeBestOf(reps) { () =>
          new GpsInStreamProcessor(math.max(1, nE / (2 * m)), seed).processStream(stream); ()
        }),
      )
    }
  }

  // ------------------------------------ Figure 8 (vs single-threaded, same memory)

  final case class SingleThreadPoint(method: String, c: Int, runtimeSec: Double, nrmse: Double)

  /** REPT(1/m, c) vs single-threaded variants with the same total memory:
    * MASCOT-S at p′ = min(1, c/m), Trièst-S with budget min(|E|, c|E|/m),
    * GPS-S with budget min(|E|, c|E|/(2m)). Runtime model: a single-threaded
    * variant runs one big pass; REPT's wall-clock is one per-processor pass
    * times ⌈c/cores⌉ scheduling waves.
    */
  def singleThread(spark: SparkSession, graph: String, m: Int, cs: Seq[Int], trials: Int,
                   seed: Long, timeReps: Int = 3): Seq[SingleThreadPoint] = {
    val stream = BenchGraphs.stream(spark, graph)
    val info = BenchGraphs.info(spark, graph)
    val nE = stream.length
    val cores = spark.sparkContext.defaultParallelism

    // Accuracy: REPT via the sweep harness; singles via trial fan-out.
    val reptRes = TrialHarness.run(spark, stream,
      TrialHarness.Config(m, cs, trials, seed, Seq(TrialHarness.ReptName), locals = false))
    val bc = spark.sparkContext.broadcast(stream)
    val singleNames = Seq("MASCOT-S", "TRIEST-S", "GPS-S")
    val singleTasks = for (c <- cs; method <- singleNames; trial <- 0 until trials)
      yield (c, method, trial)
    val singleEst = spark.sparkContext.parallelize(singleTasks, singleTasks.size)
      .map { case (c, method, trial) =>
        val s = repro.core.EdgeStream.mix64(seed ^ (method.hashCode.toLong << 32) ^
          (c.toLong << 16) ^ trial.toLong)
        val est = method match {
          case "MASCOT-S" =>
            new MascotProcessor(math.min(1.0, c.toDouble / m), s).processStream(bc.value).tauHat
          case "TRIEST-S" =>
            val b = math.min(nE.toLong, c.toLong * nE / m).toInt
            new TriestImprProcessor(math.max(2, b), s).processStream(bc.value).tauHat
          case "GPS-S" =>
            val b = math.min(nE.toLong, c.toLong * nE / (2L * m)).toInt
            new GpsInStreamProcessor(math.max(1, b), s).processStream(bc.value).tauHat
        }
        (c, method, trial, est)
      }
      .collect()

    val pts = cs.flatMap { c =>
      val reptTime = timeBestOf(timeReps) { () =>
        new ReptProcessor(m, 0, seed).processStream(stream); ()
      } * math.ceil(c.toDouble / cores)
      val mascotTime = timeBestOf(timeReps) { () =>
        new MascotProcessor(math.min(1.0, c.toDouble / m), seed).processStream(stream); ()
      }
      val triestTime = timeBestOf(timeReps) { () =>
        val b = math.min(nE.toLong, c.toLong * nE / m).toInt
        new TriestImprProcessor(math.max(2, b), seed).processStream(stream); ()
      }
      val gpsTime = timeBestOf(timeReps) { () =>
        val b = math.min(nE.toLong, c.toLong * nE / (2L * m)).toInt
        new GpsInStreamProcessor(math.max(1, b), seed).processStream(stream); ()
      }
      def nrmseOf(method: String): Double =
        ErrorMetrics.nrmse(
          singleEst.filter(r => r._1 == c && r._2 == method).sortBy(_._3).map(_._4).toSeq,
          info.tau.toDouble)
      Seq(
        SingleThreadPoint(TrialHarness.ReptName, c, reptTime,
          ErrorMetrics.nrmse(reptRes.globals((TrialHarness.ReptName, c)), info.tau.toDouble)),
        SingleThreadPoint("MASCOT-S", c, mascotTime, nrmseOf("MASCOT-S")),
        SingleThreadPoint("TRIEST-S", c, triestTime, nrmseOf("TRIEST-S")),
        SingleThreadPoint("GPS-S", c, gpsTime, nrmseOf("GPS-S")),
      )
    }
    reptRes.raw.unpersist()
    pts
  }

  // ---------------------------------------------------------------- render

  /** Fixed-width text table. */
  def render(headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (cell, w) => cell.padTo(w, ' ') }.mkString("| ", " | ", " |")
    (line(headers) +: line(headers.zip(widths).map { case (_, w) => "-" * w })
      +: rows.map(line)).mkString("\n")
  }

  def fmt(x: Double): String =
    if (x == 0.0) "0"
    else if (math.abs(x) >= 1000 || math.abs(x) < 0.001) f"$x%.3e"
    else f"$x%.4f"
}
