package repro.metrics

/** Error metrics used across the evaluation (§5.1 "Metrics"). */
object Metrics {

  /** Root-mean-squared error of estimates against a fixed truth. */
  def rmse(estimates: Seq[Double], truth: Double): Double = {
    require(estimates.nonEmpty, "no estimates")
    math.sqrt(estimates.map(e => (e - truth) * (e - truth)).sum / estimates.size)
  }

  /** Sample standard deviation (for shaded bands). */
  def stddev(xs: Seq[Double]): Double = {
    if (xs.size < 2) return 0.0
    val m = xs.sum / xs.size
    math.sqrt(xs.map(x => (x - m) * (x - m)).sum / (xs.size - 1))
  }

  def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  /** Q-error [Moerkotte et al.]: `max(est/truth, truth/est)` — symmetric
    * relative penalty. Requires same-sign values; a zero or sign-flipped
    * estimate has unbounded Q-error (capped for reporting).
    */
  def qError(estimate: Double, truth: Double, cap: Double = 1e6): Double = {
    if (estimate <= 0 || truth <= 0) cap
    else math.min(cap, math.max(estimate / truth, truth / estimate))
  }

  /** Paper's normalized Q-error: `100·(q−1)`, roughly percent error. */
  def normalizedQError(estimates: Seq[Double], truth: Double): Double =
    100.0 * (mean(estimates.map(qError(_, truth))) - 1.0)
}
