package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.harness.TrialHarness

/** Spark runner for one REPT(1/m, c) pass: each of the c processors is a
  * task of `TrialHarness.fanOut` (one task per partition, the edge stream
  * broadcast once), and the per-processor counters come back as rows —
  * globals are combined on the driver with `ReptEstimator`, local estimates
  * entirely as a DataFrame aggregation (the "per-partition sampled edge
  * counters aggregated" shape).
  *
  * Bit-identical to the sequential `Rept.run` for the same (m, c, seed).
  */
object ReptSpark {

  /** Run result: the global estimate plus (optionally) the per-node estimate
    * DataFrame (node, estimate); absent nodes estimate 0.
    */
  final case class SparkResult(tauHat: Double, locals: Option[DataFrame],
                               perProcTau: Array[Long], perProcEta: Array[Long])

  def run(spark: SparkSession, stream: Array[Long], m: Int, c: Int, seed: Long,
          locals: Boolean = true): SparkResult = {
    val lay = ReptEstimator.Layout(m, c)
    val tasks = (0 until c).map(p => TrialHarness.Task(TrialHarness.ReptName, 0, p, seed))
    val rows = TrialHarness.fanOut(spark, stream, tasks, m, lay.needsEta, locals)
    // One run's counter rows are few: read as one partition, an aggregation
    // over them shuffles from one map task instead of c.
    val counters = rows.coalesce(1)

    val globalRows = counters.where(col("node") === -1).select("proc", "tau", "eta").collect()
      .sortBy(_.getInt(0))
    val perProcTau = globalRows.map(_.getLong(1))
    val perProcEta = globalRows.map(_.getLong(2))
    val tauHat = ReptEstimator.estimateGlobal(m, c, perProcTau.toIndexedSeq, perProcEta.toIndexedSeq)

    val localsDf =
      if (!locals) { rows.unpersist(); None }
      else Some(ReptEstimator.estimateLocals(lay, counters.where(col("node") =!= -1), Nil))
    SparkResult(tauHat, localsDf, perProcTau, perProcEta)
  }
}
