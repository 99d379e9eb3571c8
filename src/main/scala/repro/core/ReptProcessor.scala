package repro.core

import scala.collection.mutable

/** One REPT processor (Algorithm 1 / Algorithm 2 of the paper).
  *
  * The processor *observes* every edge of the stream but *stores* only edges
  * whose shared-hash slot equals `slotId` (expected p = 1/m fraction). On each
  * arriving edge (u,v) it counts the semi-triangles closed by (u,v) — the
  * common neighbours of u and v in its stored graph — updating the global
  * counter τ⁽ⁱ⁾ and the local counters τ_v⁽ⁱ⁾; then, if h(u,v) = slotId, it
  * inserts (u,v).
  *
  * When `trackEta` is set it additionally maintains the triangle-pair
  * counters of Algorithm 2: per-stored-edge triangle multiplicities τ_(u,v)⁽ⁱ⁾
  * and the pair counts η⁽ⁱ⁾, η_v⁽ⁱ⁾ needed by the c > m estimator.
  *
  * Memory is O(|E⁽ⁱ⁾|) plus the counter maps, matching the paper's per-
  * processor budget. Strictly one pass; self-loops are ignored; the stream is
  * assumed duplicate-free (as in the paper's model).
  */
final class ReptProcessor(
    val m: Int,
    val slotId: Int,
    val hashSeed: Long,
    val trackEta: Boolean = false,
) extends Serializable {
  require(slotId >= 0 && slotId < m, s"slotId $slotId outside [0,$m)")

  val hasher = new EdgeHasher(m, hashSeed)

  private val adj = mutable.HashMap.empty[Int, mutable.HashSet[Int]]
  private var tauCnt: Long = 0L
  private var etaCnt: Long = 0L
  private val tauVCnt  = mutable.LongMap.empty[Long].withDefaultValue(0L)
  private val etaVCnt  = mutable.LongMap.empty[Long].withDefaultValue(0L)
  private val tauEdge  = mutable.LongMap.empty[Long].withDefaultValue(0L)
  private var stored: Long = 0L

  /** Number of semi-triangles counted so far (τ⁽ⁱ⁾). */
  def tau: Long = tauCnt

  /** Triangle-pair counter η⁽ⁱ⁾ (only meaningful when trackEta). */
  def eta: Long = etaCnt

  /** Per-node semi-triangle counts τ_v⁽ⁱ⁾ (nodes with zero count omitted). */
  def tauV: collection.Map[Int, Long] =
    tauVCnt.iterator.map { case (k, n) => (k.toInt, n) }.toMap

  /** Per-node pair counts η_v⁽ⁱ⁾ (only meaningful when trackEta). */
  def etaV: collection.Map[Int, Long] =
    etaVCnt.iterator.map { case (k, n) => (k.toInt, n) }.toMap

  /** τ_v⁽ⁱ⁾ and η_v⁽ⁱ⁾ as estimator rows tagged with processor index `proc`,
    * one per node with τ_v⁽ⁱ⁾ > 0 (every pair counted at v also closed a
    * semi-triangle at v, so η_v⁽ⁱ⁾ > 0 only at those nodes).
    */
  def localCounters(proc: Int): Iterator[ReptEstimator.LocalCounters] =
    tauVCnt.iterator.map { case (v, t) =>
      ReptEstimator.LocalCounters(proc, v.toInt, t, etaVCnt.getOrElse(v, 0L))
    }

  /** Per-stored-edge triangle multiplicities τ_(u,v)⁽ⁱ⁾ keyed by packed edge. */
  def tauEdgeCounters: collection.Map[Long, Long] = tauEdge.toMap

  /** Number of edges currently stored in E⁽ⁱ⁾. */
  def sampledEdges: Long = stored

  private def neighbors(x: Int): mutable.HashSet[Int] =
    adj.getOrElse(x, ReptProcessor.emptySet)

  /** Common neighbours of u and v in the stored graph, iterating the smaller
    * adjacency set.
    */
  private def commonNeighbors(u: Int, v: Int): List[Int] = {
    val nu = neighbors(u); val nv = neighbors(v)
    if (nu.isEmpty || nv.isEmpty) Nil
    else {
      val (small, big) = if (nu.size <= nv.size) (nu, nv) else (nv, nu)
      var out: List[Int] = Nil
      val it = small.iterator
      while (it.hasNext) { val w = it.next(); if (big.contains(w)) out = w :: out }
      out
    }
  }

  /** Process one stream edge (counting precedes the sampling decision,
    * exactly as in Algorithms 1–2).
    */
  def processEdge(u: Int, v: Int): Unit = {
    if (u == v) return
    val common = commonNeighbors(u, v)
    var k = 0
    var it = common
    val edgeKey = EdgeStream.key(u, v)
    val mySlot  = hasher.slot(edgeKey)
    while (it.nonEmpty) {
      val w = it.head; it = it.tail
      k += 1
      tauVCnt(w) += 1
      if (trackEta) {
        val kuw = EdgeStream.key(u, w)
        val kvw = EdgeStream.key(v, w)
        val tuw = tauEdge(kuw)
        val tvw = tauEdge(kvw)
        etaCnt += tuw + tvw
        etaVCnt(w) += tuw + tvw
        etaVCnt(u) += tuw
        etaVCnt(v) += tvw
        tauEdge(kuw) = tuw + 1
        tauEdge(kvw) = tvw + 1
      }
    }
    if (k > 0) {
      tauCnt += k
      tauVCnt(u) += k
      tauVCnt(v) += k
    }
    if (mySlot == slotId) {
      adj.getOrElseUpdate(u, mutable.HashSet.empty) += v
      adj.getOrElseUpdate(v, mutable.HashSet.empty) += u
      stored += 1
      // τ_(u,v) starts at |N_{u,v}⁽ⁱ⁾| — the semi-triangles (u,v) just closed.
      if (trackEta) tauEdge(edgeKey) = k.toLong
    }
  }

  /** One pass over a packed-key edge stream. */
  def processStream(stream: Array[Long]): this.type = {
    var i = 0
    while (i < stream.length) {
      val e = stream(i)
      processEdge(EdgeStream.keyU(e), EdgeStream.keyV(e))
      i += 1
    }
    this
  }
}

object ReptProcessor {
  private val emptySet = mutable.HashSet.empty[Int]
}
