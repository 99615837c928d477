package repro.core

import repro.data.{Oracle, Stratification}
import repro.ml.LogisticRegression
import repro.sampling.{PermutationSampler, Rng}

/** Proxy combination (§3.4): "ABAE can combine proxies by sampling
  * randomly in Stage 1 and using these samples to train a logistic
  * regression model using the proxies as features and the predicate as
  * the target."
  *
  * Because the combined proxy only exists *after* Stage 1, this variant
  * of ABAE draws its Stage-1 sample uniformly over the whole dataset,
  * trains the model, scores every record (proxies are cheap, so scoring
  * is free in oracle units), stratifies on the learned score, maps the
  * Stage-1 sample into the new strata as the pilot, and runs Stage 2
  * with the usual √p̂·σ̂ allocation. Stage-2 draws exclude Stage-1
  * records per stratum, so each stratum's union is a uniform
  * without-replacement sample.
  */
object ProxyCombiner {

  final case class CombinedResult(
      estimate: Double,
      oracleCalls: Long,
      model: LogisticRegression#Model,
  )

  /** Train on a labeled pilot and score every record. Every proxy value
    * must be finite; the first that is not is named by column and record.
    */
  def combineScores(
      proxies: Vector[Array[Double]],
      pilotIdx: Array[Int],
      pilotLabels: Array[Boolean],
  ): (Array[Double], LogisticRegression#Model) = {
    val lr = new LogisticRegression()
    val xs = pilotIdx.map(i => proxies.map(_(i)).toArray)
    val ys = pilotLabels.map(b => if (b) 1 else 0)
    val model = lr.fit(xs, ys)
    val n = proxies.head.length
    val scores = new Array[Double](n)
    val feat = new Array[Double](proxies.length)
    var i = 0
    while (i < n) {
      var j = 0
      while (j < proxies.length) {
        val v = proxies(j)(i)
        require(java.lang.Double.isFinite(v), s"proxy $j has a non-finite value ($v) at record $i")
        feat(j) = v
        j += 1
      }
      scores(i) = model.predictProb(feat)
      i += 1
    }
    (scores, model)
  }

  /** Run combined-proxy ABAE end to end.
    *
    * @param positive hidden oracle labels (accessed only for sampled records)
    * @param stat     hidden statistic values
    * @param proxies  cheap per-record candidate scores (freely readable):
    *                 at least one column, each of length `positive.length`
    *                 and every value finite
    */
  def run(
      positive: Array[Boolean],
      stat: Array[Double],
      proxies: Vector[Array[Double]],
      budget: Int,
      params: AbaeParams,
      seed: Long,
  ): CombinedResult = {
    val n = positive.length
    val k = params.k
    require(budget >= 2 * k, s"budget $budget too small for $k strata")
    require(proxies.nonEmpty, "no proxy columns")
    proxies.zipWithIndex.foreach { case (col, j) =>
      require(col.length == n, s"proxy $j has ${col.length} values for $n records")
    }
    val rng = Rng.stream(seed, 13)
    val oracle = new Oracle(i => (positive(i), stat(i)))

    // Stage 1: uniform pilot, labels both train the combiner and seed the
    // per-stratum estimates.
    val n1 = math.max(k * 2, (budget * params.stage1Frac).toInt)
    val pilotIdx = new PermutationSampler(n, rng).next(n1)
    val pilot = StratumDraws.label(pilotIdx, oracle.query)

    val (scores, model) = combineScores(proxies, pilotIdx, pilot.flags)

    // Restratify on the learned score; the pilot, filed into the new
    // strata, is Stage 1. Stage 2 draws uniformly from each stratum's
    // records outside the pilot.
    val strat = Stratification(scores, k)
    val drawn = new Array[Boolean](n)
    pilotIdx.foreach(drawn(_) = true)
    def draw(s: Int, m: Int): StratumDraws = {
      val pool = strat.indices(s).filterNot(drawn(_))
      StratumDraws.label(new PermutationSampler(pool.length, rng).next(m).map(pool(_)), oracle.query)
    }
    val res = Abae.finish(StratumDraws.byStratum(strat, pilotIdx, pilot), budget - n1, draw)
    CombinedResult(res.estimate, oracle.calls, model)
  }
}
