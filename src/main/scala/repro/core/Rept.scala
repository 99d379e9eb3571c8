package repro.core

/** Sequential (single-JVM) REPT orchestrator: runs the c processors of
  * Layout(m,c) over the stream one after another and combines their counters
  * into the paper's global and local estimates. The Spark runner
  * (`ReptSpark`) runs the same processors as tasks and must produce identical
  * results for the same seed (asserted in tests).
  */
object Rept {

  /** Full output of one REPT run. `tauVHat` holds only nodes with a nonzero
    * estimate contribution; absent nodes estimate 0.
    */
  final case class Result(
      m: Int,
      c: Int,
      tauHat: Double,
      tauVHat: Map[Int, Double],
      perProcTau: Array[Long],
      perProcEta: Array[Long],
  )

  /** Deterministic per-group hash seed: groups must be mutually independent. */
  def groupSeed(baseSeed: Long, group: Int): Long =
    EdgeStream.mix64(baseSeed ^ (0x5851f42d4c957f2dL * (group + 1)))

  /** Processor p of a run seeded `seed`: slot p mod m of group p / m. Its
    * counters do not depend on c, so processor p is the same in every
    * Layout(m, c) with c > p (full groups first, then the leftover group).
    */
  def processor(m: Int, p: Int, seed: Long, trackEta: Boolean): ReptProcessor =
    new ReptProcessor(m, p % m, groupSeed(seed, p / m), trackEta)

  /** Run REPT(p = 1/m, c) over a packed-key stream, one processor at a time. */
  def run(stream: Array[Long], m: Int, c: Int, seed: Long, locals: Boolean = true): Result = {
    val lay = ReptEstimator.Layout(m, c)
    val perProcTau = new Array[Long](c)
    val perProcEta = new Array[Long](c)
    val rows = Vector.newBuilder[ReptEstimator.LocalCounters]
    for (p <- 0 until c) {
      val proc = processor(m, p, seed, lay.needsEta).processStream(stream)
      perProcTau(p) = proc.tau
      perProcEta(p) = proc.eta
      if (locals) rows ++= proc.localCounters(p)
    }
    val tauHat = ReptEstimator.estimateGlobal(m, c, perProcTau.toIndexedSeq, perProcEta.toIndexedSeq)
    val tauVHat = if (locals) ReptEstimator.estimateLocals(lay, rows.result()) else Map.empty[Int, Double]
    Result(m, c, tauHat, tauVHat, perProcTau, perProcEta)
  }
}
