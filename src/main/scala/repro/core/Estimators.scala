package repro.core

import repro.data.Stratification

/** Per-stratum plug-in estimates (Algorithm 1, lines 10–12 / 18–19).
  *
  * @param draws    number of records sampled from the stratum, |R_k|
  * @param positives number of those satisfying the predicate, |X_k|
  * @param pHat     predicate positive-rate estimate p̂_k = |X_k|/|R_k|
  * @param muHat    mean statistic over positives (0 if none — paper convention)
  * @param sigmaHat sample stddev over positives (0 if fewer than 2)
  */
final case class StratumEstimates(
    draws: Int,
    positives: Int,
    pHat: Double,
    muHat: Double,
    sigmaHat: Double,
)

/** All draws for one stratum, flags aligned with statistic values;
  * `stats(i)` is only meaningful where `flags(i)` (the oracle revealed a
  * positive). This is the `R_k` / `X_k` pair of Algorithms 1–2.
  */
final case class StratumDraws(flags: Array[Boolean], stats: Array[Double]) {
  require(flags.length == stats.length, "flags/stats length mismatch")
  def n: Int = flags.length
  def ++(other: StratumDraws): StratumDraws =
    StratumDraws(flags ++ other.flags, stats ++ other.stats)

  /** Statistic values of the positive draws, in draw order. */
  def positiveStats: Array[Double] = {
    val out = Array.newBuilder[Double]
    var i = 0
    while (i < n) { if (flags(i)) out += stats(i); i += 1 }
    out.result()
  }
}

object StratumDraws {
  val empty: StratumDraws = StratumDraws(Array.emptyBooleanArray, Array.emptyDoubleArray)

  /** Label the records `idx` through `oracle`, one call each, in order. A
    * per-call adapter that serves only perfbench's traced run; the kernels
    * label through [[repro.data.PredicateOracle.label]].
    */
  def label(idx: Array[Int], oracle: Int => (Boolean, Double)): StratumDraws = {
    val flags = new Array[Boolean](idx.length)
    val stats = new Array[Double](idx.length)
    var i = 0
    while (i < idx.length) {
      val (pos, st) = oracle(idx(i))
      flags(i) = pos
      stats(i) = st
      i += 1
    }
    StratumDraws(flags, stats)
  }

  /** File the first `n` draws of records `idx` (aligned arrays, which may
    * be longer) into the strata of `strat`, keeping draw order within each
    * stratum — how a pilot drawn outside a stratification becomes its
    * per-stratum pilot.
    */
  def byStratum(strat: Stratification, idx: Array[Int], flags: Array[Boolean], stats: Array[Double],
      n: Int): Vector[StratumDraws] = {
    val stratumOf = strat.stratumOf
    val counts = new Array[Int](strat.k)
    var j = 0
    while (j < n) { counts(stratumOf(idx(j))) += 1; j += 1 }
    val out = Array.tabulate(strat.k)(s => StratumDraws(new Array[Boolean](counts(s)), new Array[Double](counts(s))))
    java.util.Arrays.fill(counts, 0)
    j = 0
    while (j < n) {
      val s = stratumOf(idx(j))
      val c = counts(s)
      out(s).flags(c) = flags(j)
      out(s).stats(c) = stats(j)
      counts(s) = c + 1
      j += 1
    }
    out.toVector
  }
}

/** Estimator arithmetic shared by the local and Spark engines, plus the
  * closed-form quantities of Propositions 1–2.
  */
object Estimators {

  /** Plug-in estimates from a stratum's draws. */
  def fromDraws(d: StratumDraws): StratumEstimates = {
    var nPos = 0
    var sum = 0.0
    var i = 0
    while (i < d.n) { if (d.flags(i)) { nPos += 1; sum += d.stats(i) }; i += 1 }
    val mu = if (nPos > 0) sum / nPos else 0.0
    var ss = 0.0
    i = 0
    while (i < d.n) {
      if (d.flags(i)) { val c = d.stats(i) - mu; ss += c * c }
      i += 1
    }
    val sigma = if (nPos > 1) math.sqrt(ss / (nPos - 1)) else 0.0
    val p = if (d.n > 0) nPos.toDouble / d.n else 0.0
    StratumEstimates(d.n, nPos, p, mu, sigma)
  }

  /** Combined estimate μ̂ = Σ p̂_k μ̂_k / Σ p̂_k (Algorithm 1, line 20). */
  def combine(est: Seq[StratumEstimates]): Double = {
    val pAll = est.map(_.pHat).sum
    if (pAll == 0.0) 0.0 else est.map(e => e.pHat * e.muHat).sum / pAll
  }

  /** Estimated optimal Stage-2 allocation T̂_k ∝ √p̂_k·σ̂_k (Prop. 1).
    *
    * Degenerate pilots are handled by graceful fallback: if every
    * √p̂_k·σ̂_k is 0 (e.g. a constant statistic) allocate ∝ √p̂_k — the
    * σ→const limit of the formula; if additionally no stratum produced a
    * positive, allocate uniformly.
    */
  def allocation(pHat: Array[Double], sigmaHat: Array[Double]): Array[Double] = {
    require(pHat.length == sigmaHat.length, "length mismatch")
    val k = pHat.length
    def normalize(xs: Array[Double]): Option[Array[Double]] = {
      val s = xs.sum
      if (s > 0) Some(xs.map(_ / s)) else None
    }
    normalize(Array.tabulate(k)(i => math.sqrt(pHat(i)) * sigmaHat(i)))
      .orElse(normalize(pHat.map(math.sqrt)))
      .getOrElse(Array.fill(k)(1.0 / k))
  }

  /** [[allocation]] over pilot estimates, with degenerate σ̂ repaired by
    * pooling: a stratum whose pilot saw too few positives to measure a
    * spread (σ̂ = 0) borrows the positives-weighted mean σ̂ of the strata
    * that could. Without this, binary statistics (e.g. celeba's
    * PERCENTAGE) zero out mid strata's allocation on small pilots. For a
    * genuinely constant statistic every σ̂ is 0 and the √p̂ fallback of
    * [[allocation]] still applies.
    */
  def allocationFromPilot(est: Seq[StratumEstimates]): Array[Double] = {
    val measured = est.filter(e => e.sigmaHat > 0)
    val pooled =
      if (measured.isEmpty) 0.0
      else measured.map(e => e.sigmaHat * e.positives).sum / measured.map(_.positives).sum
    val sigma = est.map(e => if (e.sigmaHat > 0) e.sigmaHat else pooled).toArray
    allocation(est.map(_.pHat).toArray, sigma)
  }

  /** Stage-2 draw counts ⌊n2·T̂_k⌋ per part, for shares `tHat` of the
    * Stage-2 budget `n2` (the paper floors; the ≤ K−1 leftover draws are
    * unspent). The one sizing rule of Algorithm 1 (line 16), also used to
    * split a GroupBy's N2 across stratifications by Λ.
    */
  def stage2Sizes(n2: Int, tHat: Array[Double]): Array[Int] =
    Array.tabulate(tHat.length)(s => (n2 * tHat(s)).toInt)

  /** Proposition 2: MSE of the optimal deterministic-draw allocation,
    * `(Σ_k √p_k σ_k)² / (N p_all²)`.
    */
  def prop2Mse(p: Array[Double], sigma: Array[Double], n: Double): Double = {
    val pAll = p.sum
    if (pAll == 0.0 || n <= 0) Double.PositiveInfinity
    else {
      val s = p.indices.map(i => math.sqrt(p(i)) * sigma(i)).sum
      s * s / (n * pAll * pAll)
    }
  }

  /** MSE of an arbitrary deterministic-draw allocation T (Prop. 2, Eq. 3):
    * `Σ_k w_k² σ_k² / (p_k T_k N)`. At N = 1 it is GroupBy's per-group
    * error ([[GroupBy.baseVariance]]); the theory tests use it to verify
    * T* is the minimizer.
    */
  def allocationMse(p: Array[Double], sigma: Array[Double], t: Array[Double], n: Double): Double = {
    val pAll = p.sum
    if (pAll == 0.0) return Double.PositiveInfinity
    var s = 0.0
    var k = 0
    while (k < p.length) {
      val w = p(k) / pAll
      if (w > 0) {
        if (t(k) <= 0 || p(k) <= 0) return Double.PositiveInfinity
        s += w * w * sigma(k) * sigma(k) / (p(k) * t(k) * n)
      }
      k += 1
    }
    s
  }
}
