package repro.core

import repro.data.{FlatOracle, LocalRecords}
import repro.sampling.{PermutationSampler, Rng}
import scala.util.Random

/** Uniform-sampling baseline — the only standard AQP method applicable
  * when predicate results are unavailable at ingest (§5.1, "Methods
  * evaluated"). Draws N records uniformly without replacement, queries
  * the oracle on each, and averages the statistic over the positives.
  */
object UniformSampling {

  final case class Result(estimate: Double, draws: StratumDraws, oracleCalls: Long)

  def run(records: LocalRecords, budget: Int, seed: Long): Result = {
    val oracle = new FlatOracle(records)
    run(records.n, oracle.query, budget, Rng.stream(seed, Long.MaxValue / 3))
  }

  def run(n: Int, oracle: Int => (Boolean, Double), budget: Int, rng: Random): Result = {
    val d = StratumDraws.label(new PermutationSampler(n, rng).next(budget), oracle)
    Result(Estimators.fromDraws(d).muHat, d, d.n.toLong)
  }

  /** 95%-style bootstrap CI for the uniform estimator: the draw set is a
    * single "stratum", resampled exactly as in Algorithm 2.
    */
  def ci(result: Result, beta: Int, alpha: Double, rng: Random): Bootstrap.Interval =
    Bootstrap.ci(Seq(result.draws), beta, alpha, rng)
}
