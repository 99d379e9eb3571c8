package perfbench

import java.time.Instant

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.streaming.StreamingQueryListener

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One finished Spark task, as its TaskEnd event reports it. */
final case class TaskRec(stageId: Int, launchMs: Long, finishMs: Long, deserMs: Long, gcMs: Long,
                         resultBytes: Long, shuffleBytes: Long) {
  def seconds: Double = (finishMs - launchMs) / 1e3
}

/** One finished stage: wall from submission to completion. */
final case class StageRec(stageId: Int, submitMs: Long, completeMs: Long) {
  def seconds: Double = (completeMs - submitMs) / 1e3
}

/** One micro-batch of a streaming query, from its query progress. */
final case class BatchRec(startMs: Long, durations: Map[String, Long], inputRows: Long,
                          stateRows: Long, stateBytes: Long, stateUpdateMs: Long,
                          stateCommitMs: Long) {
  def ms(key: String): Double = durations.getOrElse(key, 0L).toDouble
}

/** What Spark reported between two `drain` calls. */
final case class SparkEvents(tasks: Seq[TaskRec], stages: Seq[StageRec], batches: Seq[BatchRec]) {

  def taskSeconds: Seq[Double] = tasks.map(_.seconds)

  /** Stage (wall, longest task) pairs for `Stats.schedSeconds`. */
  def stageWalls: Seq[(Double, Double)] = {
    val longest = tasks.groupBy(_.stageId).map { case (s, ts) => s -> ts.map(_.seconds).max }
    stages.map(s => (s.seconds, longest.getOrElse(s.stageId, 0.0)))
  }
}

/** Collects Spark's own task, stage and query-progress events. Registered
  * once per session; reading goes through `drain`, which first waits until
  * the listener bus has delivered everything queued.
  */
final class SparkProbe(spark: SparkSession) {
  private val tasks = mutable.ArrayBuffer.empty[TaskRec]
  private val stages = mutable.ArrayBuffer.empty[StageRec]
  private val batches = mutable.ArrayBuffer.empty[BatchRec]

  private val taskListener = new SparkListener {
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      val m = e.taskMetrics
      val info = e.taskInfo
      val rec =
        if (m == null) TaskRec(e.stageId, info.launchTime, info.finishTime, 0, 0, 0, 0)
        else TaskRec(e.stageId, info.launchTime, info.finishTime, m.executorDeserializeTime,
          m.jvmGCTime, m.resultSize, m.shuffleWriteMetrics.bytesWritten)
      SparkProbe.this.synchronized(tasks += rec)
    }
    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
      val i = e.stageInfo
      SparkProbe.this.synchronized(stages += StageRec(i.stageId,
        i.submissionTime.getOrElse(0L), i.completionTime.getOrElse(0L)))
    }
  }

  private val queryListener = new StreamingQueryListener {
    override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
    override def onQueryIdle(e: StreamingQueryListener.QueryIdleEvent): Unit = ()
    override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()
    override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit = {
      val p = e.progress
      if (p.numInputRows > 0) {
        val ops = p.stateOperators.toSeq
        val rec = BatchRec(
          Instant.parse(p.timestamp).toEpochMilli,
          p.durationMs.asScala.map { case (k, v) => k -> v.longValue }.toMap,
          p.numInputRows,
          ops.map(_.numRowsTotal).sum, ops.map(_.memoryUsedBytes).sum,
          ops.map(_.allUpdatesTimeMs).sum, ops.map(_.commitTimeMs).sum)
        SparkProbe.this.synchronized(batches += rec)
      }
    }
  }

  spark.sparkContext.addSparkListener(taskListener)
  spark.streams.addListener(queryListener)

  /** Everything reported since the previous drain. */
  def drain(): SparkEvents = {
    ListenerBusDrain(spark.sparkContext)
    synchronized {
      val out = SparkEvents(tasks.toSeq, stages.toSeq, batches.toSeq)
      tasks.clear(); stages.clear(); batches.clear()
      out
    }
  }
}
