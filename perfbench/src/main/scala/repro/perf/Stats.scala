package repro.perf

/** Order statistics and the result line. */
object Stats {

  /** Nearest-rank percentile (p in (0, 100]) of a non-empty sample. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    val sorted = xs.sorted
    val rank = math.ceil(p / 100.0 * sorted.size).toInt
    sorted(math.min(sorted.size, math.max(1, rank)) - 1)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of an empty sample")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  final case class Metric(name: String, value: Double, unit: String)

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else BigDecimal(v).bigDecimal.toPlainString

  /** The one-line JSON object the benchmark ends with. */
  def resultLine(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
