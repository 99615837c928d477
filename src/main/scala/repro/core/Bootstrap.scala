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
  * Streams and determinism: `ci` reads its `rng` once (one `nextLong()`),
  * seeds a root `SplittableRandom` (SplitMix64; Steele, Lea & Flood 2014)
  * with it and splits the root β times in order on the calling thread, so
  * resample b's stream depends only on (seed, b). The β resamples then run
  * as a parallel stream, each writing only its own slot, so the interval is
  * the same on any number of threads or cores.
  *
  * Each resample needs one uniform index per draw: each stratum's draws
  * are ordered positives first (a relabeling, which leaves the resampling
  * distribution of the record *multiset* unchanged), so index < |X_k|
  * means "drew positive record index". The β·N inner loop allocates
  * nothing.
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
    val ns = draws.map(_.n).toArray
    val posVals = draws.map(_.positiveStats).toArray
    for (s <- posVals.indices)
      require(posVals(s).forall(java.lang.Double.isFinite),
        s"stratum $s has a positive draw with a non-finite statistic")

    val root = new SplittableRandom(rng.nextLong())
    val streams = Array.fill(beta)(root.split())
    val estimates = new Array[Double](beta)
    IntStream.range(0, beta).parallel().forEach(b => estimates(b) = resample(ns, posVals, streams(b)))

    java.util.Arrays.sort(estimates)
    Interval(percentile(estimates, alpha / 2), percentile(estimates, 1 - alpha / 2))
  }

  /** One bootstrap trial: resample every stratum at its size from `r`. */
  private def resample(ns: Array[Int], posVals: Array[Array[Double]], r: SplittableRandom): Double = {
    var pAll = 0.0
    var weighted = 0.0
    var s = 0
    while (s < ns.length) {
      val n = ns(s)
      if (n > 0) {
        val pv = posVals(s)
        var cnt = 0
        var sum = 0.0
        var i = 0
        while (i < n) {
          val idx = r.nextInt(n)
          if (idx < pv.length) { cnt += 1; sum += pv(idx) }
          i += 1
        }
        val pStar = cnt.toDouble / n
        val muStar = if (cnt > 0) sum / cnt else 0.0
        pAll += pStar
        weighted += pStar * muStar
      }
      s += 1
    }
    if (pAll == 0.0) 0.0 else weighted / pAll
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
