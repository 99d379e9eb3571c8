package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import scala.collection.mutable

/** Estimator algebra of REPT (Section III of the paper): one scalar
  * `estimate` for global and per-node estimates, applied to per-processor
  * counters (`estimateGlobal`) or to per-node counter rows, in memory or as
  * a Catalyst aggregation (`estimateLocals`). Shared by every runner.
  *
  * Conventions: processors are 0-indexed; for c > m they are grouped as
  * c = c₁·m + c₂ with groups 0..c₁−1 full (m processors) and, when c₂ ≠ 0, a
  * leftover group of c₂ processors. Processor p sits in group p / m.
  */
object ReptEstimator {

  /** Group layout for a (m, c) configuration. */
  final case class Layout(m: Int, c: Int) {
    require(m >= 1 && c >= 1, s"need m,c >= 1, got m=$m c=$c")
    val cLeM: Boolean = c <= m
    /** Number of full groups (c₁); 0 when c ≤ m. */
    val c1: Int = if (cLeM) 0 else c / m
    /** Leftover processors (c₂); equals c when c ≤ m. */
    val c2: Int = if (cLeM) c else c % m
    /** Total number of groups (each gets an independent hash seed). */
    val numGroups: Int = (if (cLeM) 0 else c1) + (if (c2 != 0) 1 else 0)
    /** Active slots in group g. */
    def slotsOf(g: Int): Int = if (!cLeM && g < c1) m else c2
    /** Whether group g is a full (m-processor) group. */
    def isFull(g: Int): Boolean = !cLeM && g < c1
    /** Whether the c > m, c₂ ≠ 0 estimator (and hence η tracking) is needed. */
    val needsEta: Boolean = !cLeM && c2 != 0
  }

  /** τ̂ = (m²/c)·Στ⁽ⁱ⁾ — the c ≤ m estimator (Theorem 2/3). */
  def estimateCleM(m: Int, c: Int, tauSum: Long): Double =
    m.toDouble * m.toDouble / c * tauSum

  /** τ̂ = (m/c₁)·Στ⁽ⁱ⁾ over the c₁ full groups — the c > m, c₂ = 0 estimator. */
  def estimateFullGroups(m: Int, c1: Int, tauSumFull: Long): Double =
    m.toDouble / c1 * tauSumFull

  /** η̂ = (m³/c)·Ση⁽ⁱ⁾ over all c processors. */
  def estimateEta(m: Int, c: Int, etaSum: Long): Double =
    math.pow(m.toDouble, 3) / c * etaSum

  /** Graybill–Deal combination of the two unbiased estimates with plug-in
    * variances (Algorithm 2). `t1` comes from the full groups, `t2` from the
    * leftover group, `etaHat` from all processors. When both plug-in weights
    * vanish (no information in either), falls back to the unweighted mean.
    */
  def combineCgtM(m: Int, c1: Int, c2: Int, t1: Double, t2: Double, etaHat: Double): Double = {
    val w1 = t1 * (m - 1) / c1
    val w2 = (t1 * (m.toDouble * m - c2) + 2.0 * etaHat * (m - c2)) / c2
    if (w1 + w2 <= 0) (t1 + t2) / 2.0
    else (w2 * t1 + w1 * t2) / (w1 + w2)
  }

  /** The REPT estimate of τ (or of one τ_v) for any (m, c) from three
    * counter sums: τ over the full groups' processors, τ over the leftover
    * group's (all c processors when c ≤ m), and η over all processors (read
    * only when `lay.needsEta`).
    */
  def estimate(lay: Layout, fullTauSum: Long, lastTauSum: Long, etaSum: Long): Double = {
    import lay._
    if (cLeM) estimateCleM(m, c, lastTauSum)
    else if (c2 == 0) estimateFullGroups(m, c1, fullTauSum)
    else combineCgtM(m, c1, c2, estimateFullGroups(m, c1, fullTauSum),
      estimateCleM(m, c2, lastTauSum), estimateEta(m, c, etaSum))
  }

  /** Global estimate for any (m, c) given the per-processor counters.
    * `tauPerProc` has length c in processor order; `etaPerProc` is required
    * only when Layout(m,c).needsEta.
    */
  def estimateGlobal(m: Int, c: Int, tauPerProc: Seq[Long], etaPerProc: Seq[Long] = Nil): Double = {
    require(tauPerProc.length == c, s"expected $c tau counters, got ${tauPerProc.length}")
    val lay = Layout(m, c)
    if (lay.needsEta)
      require(etaPerProc.length == c, s"expected $c eta counters, got ${etaPerProc.length}")
    val nFull = lay.c1 * m
    estimate(lay, tauPerProc.take(nFull).sum, tauPerProc.drop(nFull).sum,
      if (lay.needsEta) etaPerProc.sum else 0L)
  }

  /** Processor `proc`'s local counters τ_v⁽ⁱ⁾, η_v⁽ⁱ⁾ for node `node`: the
    * row schema of both forms of `estimateLocals`.
    */
  final case class LocalCounters(proc: Int, node: Int, tau: Long, eta: Long)

  /** Per-node estimates from the local counter rows of the c processors of
    * `lay`. Nodes without a row estimate 0 and are absent.
    */
  def estimateLocals(lay: Layout, rows: IterableOnce[LocalCounters]): Map[Int, Double] = {
    val nFull = lay.c1 * lay.m
    // Per node: τ sum over full groups, τ sum over the leftover group, η sum.
    val sums = mutable.LongMap.empty[Array[Long]]
    rows.iterator.foreach { r =>
      val s = sums.getOrElseUpdate(r.node.toLong, new Array[Long](3))
      s(if (r.proc < nFull) 0 else 1) += r.tau
      s(2) += r.eta
    }
    sums.iterator.map { case (v, s) => (v.toInt, estimate(lay, s(0), s(1), s(2))) }.toMap
  }

  /** The Catalyst form of `estimateLocals`: `rows` has columns proc, node,
    * tau and eta (longs) plus the caller's `keys`; the result has columns
    * `keys`, node and estimate, one row per (keys, node) group.
    */
  def estimateLocals(lay: Layout, rows: DataFrame, keys: Seq[String]): DataFrame = {
    val full = col("proc") < lay.c1 * lay.m
    val est = udf((fullTau: Long, lastTau: Long, eta: Long) => estimate(lay, fullTau, lastTau, eta))
    val by = (keys :+ "node").map(col)
    rows.groupBy(by: _*)
      .agg(sum(when(full, col("tau")).otherwise(0L)) as "fullTau",
           sum(when(full, 0L).otherwise(col("tau"))) as "lastTau",
           sum("eta") as "eta")
      .select(by :+ (est(col("fullTau"), col("lastTau"), col("eta")) as "estimate"): _*)
  }

  /** Theoretical Var(τ̂) for c ≤ m (Theorem 3). Also valid per-node with
    * (τ_v, η_v).
    */
  def varianceCleM(tau: Double, eta: Double, m: Int, c: Int): Double =
    (tau * (m.toDouble * m - c) + 2.0 * eta * (m - c)) / c

  /** Theoretical Var(τ̂) for c = c₁·m (Section III-B.1). */
  def varianceFullGroups(tau: Double, m: Int, c1: Int): Double =
    tau * (m - 1.0) / c1

  /** Theoretical variance of naively parallelised MASCOT/Trièst (Section III-C). */
  def varianceParallelMascot(tau: Double, eta: Double, m: Int, c: Int): Double =
    (tau * (m.toDouble * m - 1) + 2.0 * eta * (m - 1)) / c
}
