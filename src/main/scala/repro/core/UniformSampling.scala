package repro.core

import repro.data.{LocalRecords, Oracle}
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
    val oracle = new Oracle(i => (records.positive(i), records.stat(i)))
    run(records.n, oracle.query, budget, Rng.stream(seed, Long.MaxValue / 3))
  }

  def run(n: Int, oracle: Int => (Boolean, Double), budget: Int, rng: Random): Result = {
    val d = StratumDraws.label(new PermutationSampler(n, rng).next(budget), oracle)
    Result(Estimators.fromDraws(d).muHat, d, d.n.toLong)
  }
}
