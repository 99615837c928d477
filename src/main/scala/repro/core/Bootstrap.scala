package repro.core

import java.util.SplittableRandom
import java.util.stream.IntStream
import scala.util.Random

/** Algorithm 2 — non-parametric bootstrap over both stages' samples.
  *
  * Per trial, each stratum's draw set `R_k^(2)` is resampled with
  * replacement at its own size, the plug-in estimates are recomputed,
  * and the combined μ̂* recorded; the CI is the (α/2, 1−α/2) percentile
  * interval over β trials.
  *
  * Decomposition: a stratum's estimates p̂*_k and μ̂*_k read only the
  * positive draws of its resample, and a negative draw only adds 1 to
  * n_k. Resampling n_k draws with replacement from a set holding |X_k|
  * positives therefore has the same distribution as two steps: draw the
  * positive count c ~ Binomial(n_k, |X_k|/n_k), then draw c positive
  * indices uniformly with replacement (each positive draw is, given that
  * it is positive, uniform over the |X_k| positives, independently of the
  * others). `ci` builds each stratum's Binomial table once
  * ([[PositiveCount]]), and a resample spends per stratum one uniform and
  * a binary search for c, then c uniform indices. The interval is exact
  * in distribution, up to the double rounding of the table.
  *
  * Streams and determinism: `ci` reads its `rng` once (one `nextLong()`),
  * seeds a root `SplittableRandom` (SplitMix64; Steele, Lea & Flood 2014)
  * with it and splits the root β times in order on the calling thread, so
  * resample b's stream depends only on (seed, b). The β resamples then run
  * as a parallel stream, each writing only its own slot and reading the
  * shared tables, so the interval is the same on any number of threads or
  * cores.
  *
  * Cost: O(Σn_k) to build the tables, then O(β·(K log n + Σ|X_k|)); the
  * resampling loop allocates nothing.
  */
object Bootstrap {

  /** Two-sided percentile interval. */
  final case class Interval(lo: Double, hi: Double) {
    def width: Double = hi - lo
    def contains(x: Double): Boolean = x >= lo && x <= hi
  }

  /** Compute the CI from all draws (both stages) per stratum.
    *
    * @param beta  number of bootstrap trials (paper uses 1,000)
    * @param alpha failure probability (0.05 for a 95% CI)
    */
  def ci(draws: Seq[StratumDraws], beta: Int, alpha: Double, rng: Random): Interval = {
    require(beta >= 2, "need at least two bootstrap trials")
    require(alpha > 0 && alpha < 1, "alpha must be in (0,1)")
    val posVals = draws.map(_.positiveStats).toArray
    for (s <- posVals.indices)
      require(posVals(s).forall(java.lang.Double.isFinite),
        s"stratum $s has a positive draw with a non-finite statistic")
    val counts = draws.iterator.zip(posVals.iterator)
      .map { case (d, pv) => new PositiveCount(d.n, pv.length) }.toArray

    val root = new SplittableRandom(rng.nextLong())
    val streams = Array.fill(beta)(root.split())
    val estimates = new Array[Double](beta)
    IntStream.range(0, beta).parallel().forEach(b => estimates(b) = resample(counts, posVals, streams(b)))

    java.util.Arrays.sort(estimates)
    Interval(percentile(estimates, alpha / 2), percentile(estimates, 1 - alpha / 2))
  }

  /** One bootstrap trial: every stratum's positive count, then its positives. */
  private def resample(counts: Array[PositiveCount], posVals: Array[Array[Double]], r: SplittableRandom): Double = {
    var pAll = 0.0
    var weighted = 0.0
    var s = 0
    while (s < counts.length) {
      val n = counts(s).n
      if (n > 0) {
        val pv = posVals(s)
        val cnt = counts(s).draw(r)
        var sum = 0.0
        var i = 0
        while (i < cnt) { sum += pv(r.nextInt(pv.length)); i += 1 }
        val pStar = cnt.toDouble / n
        val muStar = if (cnt > 0) sum / cnt else 0.0
        pAll += pStar
        weighted += pStar * muStar
      }
      s += 1
    }
    if (pAll == 0.0) 0.0 else weighted / pAll
  }

  /** The positive count of one stratum's resample: Binomial(n, positives/n).
    *
    * `cdf` holds the cumulative pmf of the counts 0..n, unnormalized: the
    * pmf is built by its ratio recurrence out from the mode (weight 1), so
    * every weight is at most about 1 and the far tails underflow to 0, never
    * to NaN. A stratum whose count is fixed (no positives, or only
    * positives) has no table.
    */
  private[core] final class PositiveCount(val n: Int, positives: Int) {
    val cdf: Array[Double] =
      if (positives == 0 || positives == n) Array.emptyDoubleArray
      else {
        val w = new Array[Double](n + 1)
        val odds = positives.toDouble / (n - positives)
        val mode = ((n + 1).toLong * positives / n).toInt
        w(mode) = 1.0
        var c = mode + 1
        while (c <= n) { w(c) = w(c - 1) * ((n - c + 1).toDouble / c) * odds; c += 1 }
        c = mode - 1
        while (c >= 0) { w(c) = w(c + 1) * ((c + 1).toDouble / (n - c)) / odds; c -= 1 }
        c = 1
        while (c <= n) { w(c) += w(c - 1); c += 1 }
        w
      }

    /** The least count c in [0, n] whose cumulative weight exceeds `u`
      * (n when none does), for `u` in [0, cdf(n)).
      */
    def search(u: Double): Int = {
      var lo = 0
      var hi = n
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (cdf(mid) > u) hi = mid else lo = mid + 1
      }
      lo
    }

    def draw(r: SplittableRandom): Int =
      if (cdf.length == 0) positives else search(r.nextDouble() * cdf(n))
  }

  /** Linear-interpolation percentile over a sorted array. */
  def percentile(sorted: Array[Double], q: Double): Double = {
    val pos = q * (sorted.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, sorted.length - 1)
    val frac = pos - lo
    sorted(lo) * (1 - frac) + sorted(hi) * frac
  }
}
