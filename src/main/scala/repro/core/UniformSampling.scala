package repro.core

import repro.data.{LocalRecords, PredicateOracle}
import repro.sampling.{PermutationSampler, Rng}
import scala.util.Random

/** Uniform-sampling baseline — the only standard AQP method applicable
  * when predicate results are unavailable at ingest (§5.1, "Methods
  * evaluated"). Draws N records uniformly without replacement, queries
  * the oracle on each, and averages the statistic over the positives.
  */
object UniformSampling {

  final case class Result(estimate: Double, draws: StratumDraws, oracleCalls: Long)

  def run(records: LocalRecords, budget: Int, seed: Long): Result =
    draw(records.n, new PredicateOracle(records.positive, records.stat), budget, Rng.stream(seed, Long.MaxValue / 3))

  /** Label `budget` uniform draws from records `0 until n` in one call. */
  private[core] def draw(n: Int, oracle: PredicateOracle, budget: Int, rng: Random): Result =
    result(oracle.label(new PermutationSampler(n, rng).next(budget)))

  /** The same draws labelled one call at a time through `oracle`. A
    * per-call adapter that serves only perfbench's traced run, which wraps
    * the oracle to time each call.
    */
  def run(n: Int, oracle: Int => (Boolean, Double), budget: Int, rng: Random): Result =
    result(StratumDraws.label(new PermutationSampler(n, rng).next(budget), oracle))

  private def result(d: StratumDraws): Result = Result(Estimators.fromDraws(d).muHat, d, d.n.toLong)
}
