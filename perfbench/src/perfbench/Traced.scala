package perfbench

import repro.baselines.{GpsInStreamProcessor, MascotProcessor, ParallelBaseline, TriestImprProcessor}
import repro.core.{EdgeHasher, Rept, ReptProcessor}
import repro.harness.TrialHarness

/** The traced run: untraced and traced passes alternating for the requested
  * seconds (at least one of each), then the layer probes twice. Produces
  * every per-layer metric.
  */
final case class Traced(ctx: Ctx, w: Workload, in: Input, runner: Runner) {
  import Stats.median
  import Traced._

  private val tr = ctx.tracer
  private val m = w.m
  private def nE = in.stream.length

  def metrics(sessionS: Double, graphS: Double, exactS: Double): Seq[(String, Double, String)] = {
    val probe = new SparkProbe(ctx.spark)
    val passes = scala.collection.mutable.ArrayBuffer.empty[(Boolean, TracedPass)]
    val t0 = System.nanoTime()
    var i = 0
    while (i < 2 || (System.nanoTime() - t0) / 1e9 < runner.args.seconds) {
      val traced = i % 2 == 1
      tr.active = traced
      val p = runner.loop(if (traced) "traced" else "untraced", in, 0.0)
      val ev = probe.drain()
      ev.batches.foreach(b => tr.attach("stream.batch", b.startMs, b.startMs + b.ms("triggerExecution").toLong))
      ev.tasks.foreach(t => tr.attach("spark.task", t.launchMs, t.finishMs))
      p.foreach(x => passes += ((traced, TracedPass(x, ev))))
      i += 1
    }
    val traced = passes.collect { case (true, t) => t }.toSeq
    val untraced = passes.collect { case (false, t) => t }.toSeq
    tr.active = true
    val probes = Seq(layerProbes(), layerProbes())
    tr.active = false

    // Work counts must not depend on tracing or on which pass it is.
    val passCounts = (untraced ++ traced).map(passWorkCounts)
    if (passCounts.distinct.size > 1)
      runner.countMismatch(s"passes disagree on work counts: ${passCounts.distinct.mkString(" vs ")}")
    if (probes.map(_.counts).distinct.size > 1)
      runner.countMismatch(s"layer probes disagree on work counts: ${probes.map(_.counts).distinct.mkString(" vs ")}")
    passCounts.headOption.foreach(c => println("work counts " + c.map { case (k, v) => s"$k=$v" }.mkString(" ")))
    println("probe counts " + probes.head.counts.map { case (k, v) => s"$k=$v" }.mkString(" "))

    val self = tr.selfSeconds
    val nPasses = math.max(1, traced.size).toDouble
    def perPass(name: String) = self.getOrElse(name, 0.0) / nPasses
    def med(f: TracedPass => Double) = if (traced.isEmpty) Double.NaN else median(traced.map(f))
    val jobs = traced.flatMap(_.pass.jobs)
    def regime(keep: Int => Boolean) = {
      val js = jobs.filter(_.cs.forall(keep))
      if (js.isEmpty) 0.0 else median(js.map(_.seconds))
    }
    val batches = traced.flatMap(_.ev.batches)
    def batchP50(f: BatchRec => Double) = if (batches.isEmpty) 0.0 else median(batches.map(f))
    tail("spark task", traced.flatMap(_.ev.taskSeconds).map(_ * 1e3))
    tail("micro-batch trigger", batches.map(_.ms("triggerExecution")))
    val tracedWall = med(_.pass.seconds)
    val untracedWall = if (untraced.isEmpty) Double.NaN else median(untraced.map(_.pass.seconds))
    val probeA = probes.head

    Seq(
      ("hash.ns_per_edge", median(probes.map(_.hashNsPerEdge)), "ns"),
      ("hash.edges", nE.toDouble, "count"),
      ("engine.rept.pass_s", median(probes.flatMap(_.reptPass)), "s"),
      ("engine.rept_eta.pass_s", median(probes.flatMap(_.reptEtaPass)), "s"),
      ("engine.rept.edges_per_s", nE / median(probes.flatMap(_.reptPass)), "edges/s"),
    ) ++ probeA.counts.filter(_._1.startsWith("engine.rept.")).map { case (k, v) => (k, v, "count") } ++ Seq(
      ("engine.rept.balance_chi2", probeA.balanceChi2, "chi2"),
      ("engine.mascot.pass_s", median(probes.map(_.mascotPass)), "s"),
      ("engine.triest.pass_s", median(probes.map(_.triestPass)), "s"),
      ("engine.gps.pass_s", median(probes.map(_.gpsPass)), "s"),
    ) ++ probeA.counts.filter(k => k._1.startsWith("engine.") && !k._1.startsWith("engine.rept."))
      .map { case (k, v) => (k, v, "count") } ++ Seq(
      ("spark.tasks", med(_.ev.tasks.size.toDouble), "count"),
      ("spark.stages", med(_.ev.stages.size.toDouble), "count"),
      ("spark.task_s.max", med(t => (0.0 +: t.ev.taskSeconds).max), "s"),
      ("spark.task_s.sum", med(_.ev.taskSeconds.sum), "s"),
      ("spark.busy_share", med(t => Stats.busyShare(t.ev.taskSeconds, t.pass.seconds, ctx.cores)), "share"),
      ("spark.busy_share.c_le_m", busyShareCleM(traced), "share"),
      ("spark.sched_s", med(t => Stats.schedSeconds(t.ev.stageWalls)), "s"),
      ("spark.deser_s", med(_.ev.tasks.map(_.deserMs).sum / 1e3), "s"),
      ("spark.gc_s", med(_.ev.tasks.map(_.gcMs).sum / 1e3), "s"),
      ("spark.result_bytes", med(_.ev.tasks.map(_.resultBytes).sum.toDouble), "bytes"),
      ("spark.shuffle_bytes", med(_.ev.tasks.map(_.shuffleBytes).sum.toDouble), "bytes"),
      ("combine.locals_s", perPass("combine.locals"), "s"),
      ("combine.locals_rows", med(_.pass.jobs.map(_.out.locals.size).sum.toDouble), "count"),
      ("combine.globals_s", perPass("combine.globals"), "s"),
      ("stream.batches", med(_.ev.batches.size.toDouble), "count"),
      ("stream.trigger_ms.p50", batchP50(_.ms("triggerExecution")), "ms"),
      ("stream.add_batch_ms.p50", batchP50(_.ms("addBatch")), "ms"),
      ("stream.planning_ms.p50", batchP50(_.ms("queryPlanning")), "ms"),
      ("stream.wal_ms.p50", batchP50(_.ms("walCommit")), "ms"),
      ("stream.state_update_ms.p50", batchP50(_.stateUpdateMs.toDouble), "ms"),
      ("stream.state_commit_ms.p50", batchP50(_.stateCommitMs.toDouble), "ms"),
      ("stream.state_bytes", med(_.ev.batches.lastOption.map(_.stateBytes.toDouble).getOrElse(0.0)), "bytes"),
      ("stream.state_rows", med(_.ev.batches.lastOption.map(_.stateRows.toDouble).getOrElse(0.0)), "count"),
      ("stream.input_rows_per_edge", med(_.ev.batches.map(_.inputRows).sum.toDouble / nE), "rows/edge"),
      ("stream.driver_s", med(t =>
        if (t.ev.batches.isEmpty) 0.0
        else t.pass.jobs.map(_.seconds).sum - t.ev.batches.map(_.ms("triggerExecution")).sum / 1e3), "s"),
      ("setup.session_s", sessionS, "s"),
      ("setup.graph_s", graphS, "s"),
      ("setup.exact_s", exactS, "s"),
      ("job.c_lt_m_s", regime(_ < m), "s"),
      ("job.c_eq_m_s", regime(_ == m), "s"),
      ("job.c_gt_m_s", regime(_ > m), "s"),
      ("self.pass_s", perPass("pass"), "s"),
      ("self.spark.run_s", perPass("spark.run"), "s"),
      ("self.stream.batch_s", perPass("stream.batch"), "s"),
      ("trace.wall_s", tracedWall, "s"),
      ("trace.overhead_s", tracedWall - untracedWall, "s"),
    )
  }

  /** Prints a latency sample's median and the highest percentile that has
    * at least ten samples beyond it.
    */
  private def tail(what: String, ms: Seq[Double]): Unit =
    if (ms.nonEmpty) println(f"$what ms: n=${ms.size} p50=${median(ms)}%.1f " +
      Stats.supportedPercentile(ms.size).filter(_ > 50)
        .map(p => f"p$p%.1f=${Stats.percentile(ms, p)}%.1f").getOrElse("(no higher percentile supported)"))

  /** Busy share over the jobs run at one c, at most m (not the sweep, which
    * runs several): Σ time of the tasks launched inside those jobs ÷
    * (cores × Σ their wall).
    */
  private def busyShareCleM(traced: Seq[TracedPass]): Double = {
    val shares = traced.flatMap { t =>
      val jobs = t.pass.jobs.filter(j => j.cs.size == 1 && j.cs.head <= m)
      val tasks = t.ev.tasks.filter { task =>
        val at = tr.toNano(task.launchMs)
        jobs.exists(j => j.startNs <= at && at <= j.endNs)
      }
      Option.when(jobs.nonEmpty)(Stats.busyShare(tasks.map(_.seconds), jobs.map(_.seconds).sum, ctx.cores))
    }
    if (shares.isEmpty) 0.0 else median(shares)
  }

  /** The deterministic counts of a traced pass. */
  private def passWorkCounts(t: TracedPass): Seq[(String, Double)] = Seq(
    "spark.tasks" -> t.ev.tasks.size.toDouble,
    "spark.stages" -> t.ev.stages.size.toDouble,
    "stream.batches" -> t.ev.batches.size.toDouble,
    "stream.input_rows" -> t.ev.batches.map(_.inputRows).sum.toDouble,
    "stream.state_rows" -> t.ev.batches.lastOption.map(_.stateRows.toDouble).getOrElse(0.0),
    "combine.locals_rows" -> t.pass.jobs.map(_.out.locals.size).sum.toDouble,
  )

  /** Calls into the hash, the REPT engine and the three baselines directly on
    * the workload's stream, with the seeds the workloads' runs use.
    */
  private def layerProbes(): Probe = {
    val groupSeed = Rept.groupSeed(ctx.seed, 0)
    val hasher = new EdgeHasher(m, groupSeed)
    val hashReps = 10
    var sink = 0L
    val (_, hashS) = Workloads.timed(tr.span("probe.hash") {
      for (_ <- 0 until hashReps; e <- in.stream) sink += hasher.slot(e)
    })
    val plain = (0 until m).map { s =>
      Workloads.timed(tr.span("probe.engine.rept")(new ReptProcessor(m, s, groupSeed).processStream(in.stream)))
    }
    val withEta = (0 until m).map { s =>
      Workloads.timed(tr.span("probe.engine.rept_eta")(
        new ReptProcessor(m, s, groupSeed, trackEta = true).processStream(in.stream)))
    }
    val procs = withEta.map(_._1)
    def base(method: String) =
      ParallelBaseline.procSeed(TrialHarness.trialSeed(ctx.seed, method, 0), 0)
    val (mascot, mascotS) = Workloads.timed(tr.span("probe.engine.mascot")(
      new MascotProcessor(1.0 / m, base(TrialHarness.MascotName)).processStream(in.stream)))
    val (triest, triestS) = Workloads.timed(tr.span("probe.engine.triest")(
      new TriestImprProcessor(math.max(2, math.round(nE.toDouble / m).toInt),
        base(TrialHarness.TriestName)).processStream(in.stream)))
    val (gps, gpsS) = Workloads.timed(tr.span("probe.engine.gps")(
      new GpsInStreamProcessor(math.max(1, math.round(nE.toDouble / (2.0 * m)).toInt),
        base(TrialHarness.GpsName)).processStream(in.stream)))
    val stored = procs.map(_.sampledEdges)
    if (plain.map(_._1.tau) != procs.map(_.tau)) runner.countMismatch("REPT τ differs with η tracking on")
    Probe(
      hashNsPerEdge = hashS * 1e9 / (hashReps.toDouble * nE),
      reptPass = plain.map(_._2), reptEtaPass = withEta.map(_._2),
      mascotPass = mascotS, triestPass = triestS, gpsPass = gpsS,
      balanceChi2 = Stats.chi2Uniform(stored),
      counts = Seq(
        "hash.slot_sum" -> sink.toDouble,
        "engine.rept.stored_max" -> stored.max.toDouble,
        "engine.rept.stored_min" -> stored.min.toDouble,
        "engine.rept.semi_triangles" -> procs.map(_.tau).sum.toDouble,
        "engine.rept.eta_pairs" -> procs.map(_.eta).sum.toDouble,
        "engine.rept.tau_v_entries" -> procs.map(_.tauV.size).sum.toDouble,
        "engine.rept.tau_edge_entries" -> procs.map(_.tauEdgeCounters.size).sum.toDouble,
        "engine.mascot.stored" -> mascot.sampledEdges.toDouble,
        "engine.triest.stored" -> triest.sampledEdges.toDouble,
        "engine.gps.stored" -> gps.sampledEdges.toDouble,
      ))
  }
}

object Traced {
  /** One traced pass and the Spark events it caused. */
  final case class TracedPass(pass: Pass, ev: SparkEvents)

  /** Timings and work counts of one round of layer probes. */
  final case class Probe(hashNsPerEdge: Double, reptPass: Seq[Double], reptEtaPass: Seq[Double],
                                 mascotPass: Double, triestPass: Double, gpsPass: Double,
                                 balanceChi2: Double, counts: Seq[(String, Double)])
}
