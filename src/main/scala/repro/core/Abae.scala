package repro.core

import repro.data.{CountingOracle, StratifiedLocal}
import repro.sampling.{PermutationSampler, Rng, StratumSampler}

/** Parameters of ABAE's two-stage sampler.
  *
  * @param k          number of strata K (paper default 5)
  * @param stage1Frac fraction C of the budget spent in Stage 1 (default 0.5)
  * @param reuse      reuse Stage-1 samples in the final estimates
  *                   (Algorithm 1 lines 16–17; disabled only for the
  *                   Fig. 9 lesion study)
  */
final case class AbaeParams(
    k: Int = 5,
    stage1Frac: Double = 0.5,
    reuse: Boolean = true,
) {
  require(k >= 1, "need at least one stratum")
  require(stage1Frac > 0 && stage1Frac < 1, "stage1Frac must be in (0,1)")
}

/** Output of one ABAE run.
  *
  * @param estimate    μ̂ = Σ p̂_k μ̂_k / Σ p̂_k
  * @param perStratum  final per-stratum estimates backing `estimate`
  * @param stage1      pilot estimates that determined the allocation
  * @param allocation  T̂_k (Stage-2 share per stratum)
  * @param draws       every draw per stratum across both stages — the
  *                    `R^(2)` handed to the bootstrap
  * @param oracleCalls total oracle calls charged
  */
final case class AbaeResult(
    estimate: Double,
    perStratum: Vector[StratumEstimates],
    stage1: Vector[StratumEstimates],
    allocation: Array[Double],
    draws: Vector[StratumDraws],
    oracleCalls: Long,
)

/** Algorithm 1 — ABAE's two-stage stratified sampler (local engine).
  *
  * The engine is data-agnostic: it sees one without-replacement
  * [[StratumSampler]] per stratum, which carries its stratum's population,
  * and a batch oracle `label(s, idx)` that labels positions `idx` of
  * stratum `s` (matches, statistic), charging one call each. It calls the
  * oracle once per stage and stratum. A sampler remembers its draws, so
  * Stage 2 extends Stage 1's sample exactly as in the pseudocode
  * (`R_k^(2) ← R_k^(1) + SampleFn(S_k, ⌊N_2·T̂_k⌋)`). Both engines' seeded
  * entry points pass it the same [[samplers]], so one seed draws the same
  * records on either engine.
  */
object Abae {

  /** Stage-1 draws per stratum for a total budget: ⌊budget·C/K⌋. */
  def stage1PerStratum(budget: Int, params: AbaeParams): Int =
    math.max(1, (budget * params.stage1Frac).toInt / params.k)

  def run(
      samplers: Vector[StratumSampler],
      label: (Int, Array[Int]) => StratumDraws,
      budget: Int,
      params: AbaeParams,
  ): AbaeResult = {
    val k = params.k
    require(samplers.length == k, "need one sampler per stratum")
    require(budget >= 2 * k, s"budget $budget too small for $k strata")

    val n1 = stage1PerStratum(budget, params)
    def drawFrom(stratum: Int, count: Int): StratumDraws = label(stratum, samplers(stratum).next(count))

    // Stage 1: N1 uniform draws per stratum; Stage 2 spends the rest.
    val pilot = Vector.tabulate(k)(s => drawFrom(s, n1))
    finish(pilot, budget - pilot.map(_.n).sum, drawFrom, params.reuse)
  }

  /** [[run]] through a per-record oracle `(stratum, index) → (matches,
    * statistic)`, given the stratum sizes |S_k|: each stratum's sampler
    * must draw from a population of exactly |S_k| records. A per-call
    * adapter that serves only perfbench's traced run, which wraps the
    * oracle to time each call.
    */
  def run(
      sizes: Vector[Int],
      oracle: (Int, Int) => (Boolean, Double),
      samplers: Vector[StratumSampler],
      budget: Int,
      params: AbaeParams,
  ): AbaeResult = {
    val k = params.k
    require(sizes.length == k && samplers.length == k, "need one stratum size and sampler per stratum")
    for (s <- 0 until k)
      require(samplers(s).populationSize == sizes(s),
        s"stratum $s has ${sizes(s)} records but its sampler draws from ${samplers(s).populationSize}")
    run(samplers, (s, idx) => StratumDraws.label(idx, oracle(s, _)), budget, params)
  }

  /** Algorithm 1 after the pilot: T̂_k ∝ √p̂_k σ̂_k (pooled-σ̂ repaired),
    * `draw(s, ⌊n2·T̂_s⌋)` once per stratum in order 0..K−1 (callers that
    * share one RNG across strata rely on it), then the final estimates over
    * both stages, or over Stage 2 alone when `!reuse` (Fig. 9 lesion).
    */
  def finish(
      pilot: Vector[StratumDraws],
      n2: Int,
      draw: (Int, Int) => StratumDraws,
      reuse: Boolean,
  ): AbaeResult = {
    val stage1Est = pilot.map(Estimators.fromDraws)
    val tHat = Estimators.allocationFromPilot(stage1Est)
    val m = Estimators.stage2Sizes(n2, tHat)
    val stage2 = Vector.tabulate(pilot.length)(s => draw(s, m(s)))
    val draws = Vector.tabulate(pilot.length)(s => pilot(s) ++ stage2(s))
    val finalEst = (if (reuse) draws else stage2).map(Estimators.fromDraws)
    AbaeResult(Estimators.combine(finalEst), finalEst, stage1Est, tHat, draws, draws.map(_.n.toLong).sum)
  }

  /** The seeded samplers of both engines: a fresh [[PermutationSampler]]
    * per stratum of size `sizes(s)`, each on its own stream of `seed`.
    */
  def samplers(sizes: Vector[Int], seed: Long): Vector[StratumSampler] =
    Vector.tabulate(sizes.length)(s => new PermutationSampler(sizes(s), Rng.stream(seed, s)))

  /** Convenience entry point over a stratified local dataset with fresh
    * seeded [[samplers]].
    */
  def run(
      data: StratifiedLocal,
      oracle: CountingOracle,
      budget: Int,
      params: AbaeParams,
      seed: Long,
  ): AbaeResult = {
    require(data.k == params.k, s"data has ${data.k} strata, params want ${params.k}")
    run(samplers(data.sizes, seed), oracle.label _, budget, params)
  }
}
