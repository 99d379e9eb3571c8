package repro.streaming

import org.apache.spark.sql.{Encoders, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{EdgeStream, Rept, ReptEstimator, ReptProcessor}

/** REPT as a genuine one-pass Structured Streaming job.
  *
  * The edge stream arrives in micro-batches; each edge is replicated to all c
  * logical processors (every REPT processor must *observe* every edge), and
  * `flatMapGroupsWithState` keyed by processor id keeps each processor's
  * `ReptProcessor` — its sampled edge set E⁽ⁱ⁾ plus counters — as streaming
  * state across batches (java-serialized). After every batch each processor
  * emits a counter snapshot; the final snapshots are combined into the
  * paper's estimates exactly like the batch runner, so a streaming run is
  * bit-identical to `Rept.run` on the same (m, c, seed).
  */
object ReptStreaming {

  /** One stream edge replicated to one processor. */
  final case class ProcEdge(proc: Int, t: Long, u: Int, v: Int)

  /** Per-processor counter snapshot emitted after each micro-batch. */
  final case class Snapshot(proc: Int, edgesSeen: Long, tau: Long, eta: Long,
                            tauV: Map[Int, Long], etaV: Map[Int, Long])

  /** Result of a completed streaming run. */
  final case class StreamingResult(tauHat: Double, tauVHat: Map[Int, Double],
                                   perProcTau: Array[Long], perProcEta: Array[Long],
                                   snapshotsPerProc: Int)

  /** Wraps ReptProcessor with the edges-seen count needed for snapshots.
    * Public because the streaming state encoder (java serialization) only
    * accepts public classes.
    */
  final case class ProcHolder(engine: ReptProcessor, var seen: Long)

  /** Run REPT over `stream` fed in `batchSize`-edge micro-batches.
    * Deterministic in (m, c, seed) and independent of batchSize.
    */
  def run(spark: SparkSession, stream: Array[Long], m: Int, c: Int, seed: Long,
          batchSize: Int): StreamingResult = {
    import spark.implicits._
    val lay = ReptEstimator.Layout(m, c)

    val source = MemoryStream[ProcEdge](spark)
    // Java serialization for state: ReptProcessor and its scala collections
    // are plainly Serializable, which kryo's field serializer is not
    // guaranteed to handle.
    implicit val stateEnc: org.apache.spark.sql.Encoder[ProcHolder] =
      Encoders.javaSerialization[ProcHolder]

    val snapshots = source.toDS()
      .groupByKey(_.proc)
      .flatMapGroupsWithState[ProcHolder, Snapshot](
        OutputMode.Update(), GroupStateTimeout.NoTimeout()) {
        (proc: Int, edges: Iterator[ProcEdge], state: GroupState[ProcHolder]) =>
          val holder =
            if (state.exists) state.get
            else ProcHolder(Rept.processor(m, proc, seed, lay.needsEta), 0L)
          // Micro-batch rows carry the global stream position t; replay in order.
          val batch = edges.toArray.sortBy(_.t)
          batch.foreach { e => holder.engine.processEdge(e.u, e.v); holder.seen += 1 }
          state.update(holder)
          Iterator.single(Snapshot(proc, holder.seen, holder.engine.tau, holder.engine.eta,
            holder.engine.tauV.toMap, holder.engine.etaV.toMap))
      }

    val queryName = s"rept_snapshots_${System.nanoTime()}"
    val query = snapshots.writeStream
      .format("memory")
      .queryName(queryName)
      .outputMode("update")
      .start()
    try {
      stream.zipWithIndex.grouped(batchSize).foreach { chunk =>
        source.addData(chunk.map { case (k, t) =>
          ProcEdge(0, t.toLong, EdgeStream.keyU(k), EdgeStream.keyV(k))
        }.flatMap(pe => (0 until c).map(p => pe.copy(proc = p))))
        query.processAllAvailable()
      }
    } finally query.stop()

    val all = spark.table(queryName).as[Snapshot].collect()
    val finalSnaps = all.groupBy(_.proc).map { case (_, snaps) => snaps.maxBy(_.edgesSeen) }
    // Every micro-batch reaches every processor, so each emits one snapshot per batch.
    combine(lay, finalSnaps.toSeq.sortBy(_.proc), all.count(_.proc == 0))
  }

  /** Combine final per-processor snapshots into the paper's estimates. */
  def combine(lay: ReptEstimator.Layout, snaps: Seq[Snapshot], snapshotsPerProc: Int): StreamingResult = {
    require(snaps.map(_.proc) == (0 until lay.c), s"missing processors: got ${snaps.map(_.proc)}")
    val perProcTau = snaps.map(_.tau).toArray
    val perProcEta = snaps.map(_.eta).toArray
    val tauHat = ReptEstimator.estimateGlobal(lay.m, lay.c, perProcTau.toIndexedSeq,
      perProcEta.toIndexedSeq)
    val locals = ReptEstimator.estimateLocals(lay, snaps.iterator.flatMap { s =>
      s.tauV.iterator.map { case (v, t) =>
        ReptEstimator.LocalCounters(s.proc, v, t, s.etaV.getOrElse(v, 0L))
      }
    })
    StreamingResult(tauHat, locals, perProcTau, perProcEta, snapshotsPerProc)
  }
}
