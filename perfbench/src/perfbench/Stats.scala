package perfbench

/** The benchmark's own statistics. Pure functions, covered by `SelfTest`. */
object Stats {

  /** Median; the mean of the two middle values for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }

  /** Percentiles the benchmark may report, lowest first. */
  val Percentiles: Seq[Double] = Seq(50.0, 90.0, 95.0, 99.0, 99.9)

  /** The highest percentile with at least ten samples beyond it, or None when
    * even the median lacks that support (fewer than 20 samples).
    */
  def supportedPercentile(n: Int): Option[Double] =
    Percentiles.filter(p => n * (100.0 - p) / 100.0 >= 10.0 - 1e-9).lastOption

  /** Nearest-rank percentile. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    s(math.min(s.length - 1, math.max(0, math.ceil(p / 100.0 * s.length).toInt - 1)))
  }

  /** Share of the cores kept busy by tasks over a wall interval:
    * Σ task time ÷ (cores × wall).
    */
  def busyShare(taskSeconds: Seq[Double], wallSeconds: Double, cores: Int): Double =
    if (wallSeconds <= 0) 0.0 else taskSeconds.sum / (cores * wallSeconds)

  /** Scheduling overhead: Σ over stages of (stage wall − its longest task). */
  def schedSeconds(stages: Seq[(Double, Double)]): Double =
    stages.map { case (stageWall, longestTask) => math.max(0.0, stageWall - longestTask) }.sum

  /** Pearson χ² of observed counts against a uniform expectation (the hash
    * balance of one REPT group's m slots; m − 1 degrees of freedom).
    */
  def chi2Uniform(counts: Seq[Long]): Double = {
    require(counts.nonEmpty, "χ² of no cells")
    val expected = counts.sum.toDouble / counts.length
    if (expected == 0) 0.0
    else counts.map(o => (o - expected) * (o - expected) / expected).sum
  }

  /** Length of the union of intervals, clipped to [lo, hi]. */
  def coveredLength(intervals: Seq[(Long, Long)], lo: Long, hi: Long): Long = {
    val clipped = intervals
      .map { case (s, e) => (math.max(s, lo), math.min(e, hi)) }
      .filter { case (s, e) => e > s }
      .sortBy(_._1)
    var total = 0L
    var curS = Long.MinValue; var curE = Long.MinValue
    for ((s, e) <- clipped) {
      if (s > curE) { if (curE > curS) total += curE - curS; curS = s; curE = e }
      else curE = math.max(curE, e)
    }
    if (curE > curS) total += curE - curS
    total
  }
}
