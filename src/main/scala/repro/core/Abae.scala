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
  * @param oracleCalls total oracle invocations charged
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
  * The engine is data-agnostic: it sees only stratum sizes, a counting
  * oracle `(stratum, index) → (matches, statistic)`, and one
  * without-replacement [[StratumSampler]] per stratum. The samplers are
  * stateful permutations, so Stage 2 extends Stage 1's sample exactly as
  * in the pseudocode (`R_k^(2) ← R_k^(1) + SampleFn(S_k, ⌊N_2·T̂_k⌋)`).
  */
object Abae {

  /** Stage-1 draws per stratum for a total budget: ⌊budget·C/K⌋. */
  def stage1PerStratum(budget: Int, params: AbaeParams): Int =
    math.max(1, (budget * params.stage1Frac).toInt / params.k)

  def run(
      sizes: Vector[Int],
      oracle: (Int, Int) => (Boolean, Double),
      samplers: Vector[StratumSampler],
      budget: Int,
      params: AbaeParams,
  ): AbaeResult = {
    val k = params.k
    require(sizes.length == k && samplers.length == k, "need one stratum size and sampler per stratum")
    require(budget >= 2 * k, s"budget $budget too small for $k strata")

    val n1 = stage1PerStratum(budget, params)
    def drawFrom(stratum: Int, count: Int): StratumDraws =
      StratumDraws.label(samplers(stratum).next(count), oracle(stratum, _))

    // Stage 1: N1 uniform draws per stratum → pilot estimates.
    val stage1Draws = Vector.tabulate(k)(s => drawFrom(s, n1))
    val stage1Est = stage1Draws.map(Estimators.fromDraws)

    // Allocation T̂_k ∝ √p̂_k σ̂_k over the remaining budget N2 (with
    // pooled-σ̂ repair for strata whose pilot saw too few positives).
    val n2 = budget - stage1Draws.map(_.n).sum
    val tHat = Estimators.allocationFromPilot(stage1Est)

    // Stage 2: ⌊N2·T̂_k⌋ further draws per stratum.
    val m = Estimators.stage2Sizes(n2, tHat)
    val stage2Draws = Vector.tabulate(k)(s => drawFrom(s, m(s)))
    val draws = Vector.tabulate(k)(s => stage1Draws(s) ++ stage2Draws(s))

    // Final estimates over both stages (or Stage 2 only, for the lesion).
    val finalDraws = if (params.reuse) draws else stage2Draws
    val finalEst = finalDraws.map(Estimators.fromDraws)

    AbaeResult(
      estimate = Estimators.combine(finalEst),
      perStratum = finalEst,
      stage1 = stage1Est,
      allocation = tHat,
      draws = draws,
      oracleCalls = draws.map(_.n.toLong).sum,
    )
  }

  /** Convenience entry point over a stratified local dataset with fresh
    * seeded permutation samplers (one independent stream per stratum).
    */
  def run(
      data: StratifiedLocal,
      oracle: CountingOracle,
      budget: Int,
      params: AbaeParams,
      seed: Long,
  ): AbaeResult = {
    require(data.k == params.k, s"data has ${data.k} strata, params want ${params.k}")
    val samplers = Vector.tabulate(data.k) { s =>
      new PermutationSampler(data.strata(s).n, Rng.stream(seed, s))
    }
    run(data.sizes, oracle.query _, samplers, budget, params)
  }
}
