package repro.core

import java.util.BitSet
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

  /** @param model the fitted combiner; `None` when the Stage-1 pilot held
    *              one label class, so there was nothing to fit
    */
  final case class CombinedResult(
      estimate: Double,
      oracleCalls: Long,
      model: Option[LogisticRegression#Model],
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
    val cols = proxies.toArray
    val xs = pilotIdx.map { i =>
      val row = new Array[Double](cols.length)
      var j = 0
      while (j < cols.length) { row(j) = cols(j)(i); j += 1 }
      row
    }
    val ys = pilotLabels.map(b => if (b) 1 else 0)
    val model = lr.fit(xs, ys)
    (score(proxies, Some(model)), model)
  }

  /** Every record's score under `model`, or 0.0 without one, checking
    * each proxy value is finite. Scoring runs one column at a time: each
    * record starts at the bias and adds w_j·(x_j − mean_j)/std_j for j in
    * order, as `predictProb` does, so the scores equal its values.
    */
  private[core] def score(proxies: Vector[Array[Double]], model: Option[LogisticRegression#Model]): Array[Double] = {
    val n = proxies.head.length
    // The first non-finite value in record order, then column order.
    var badRecord = n
    var badColumn = -1
    var j = 0
    while (j < proxies.length) {
      val col = proxies(j)
      var i = 0
      while (i < badRecord && java.lang.Double.isFinite(col(i))) i += 1
      if (i < badRecord) { badRecord = i; badColumn = j }
      j += 1
    }
    require(badColumn < 0,
      s"proxy $badColumn has a non-finite value (${proxies(badColumn)(badRecord)}) at record $badRecord")
    val scores = new Array[Double](n)
    if (model.isDefined) {
      val m = model.get
      java.util.Arrays.fill(scores, m.bias)
      j = 0
      while (j < proxies.length) {
        val col = proxies(j)
        val w = m.weights(j)
        val mu = m.mean(j)
        val sd = m.std(j)
        var i = 0
        while (i < n) { scores(i) += w * (col(i) - mu) / sd; i += 1 }
        j += 1
      }
      var i = 0
      while (i < n) { scores(i) = LogisticRegression.sigmoid(scores(i)); i += 1 }
    }
    scores
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

    // A pilot of one label class has nothing to fit: every record scores
    // the same, so the strata below are index ranges.
    val (scores, model) =
      if (pilot.flags.distinct.length < 2) (score(proxies, None), None)
      else {
        val (s, m) = combineScores(proxies, pilotIdx, pilot.flags)
        (s, Some(m))
      }

    // Restratify on the learned score; the pilot, filed into the new
    // strata, is Stage 1. Stage 2 draws uniformly from each stratum's
    // records outside the pilot.
    val strat = Stratification(scores, k)
    val taken = new BitSet(n)
    pilotIdx.foreach(taken.set)
    def draw(s: Int, m: Int): StratumDraws =
      StratumDraws.label(PermutationSampler.excluding(strat, s, taken, rng).next(m), oracle.query)
    val res = Abae.finish(StratumDraws.byStratum(strat, pilotIdx, pilot), budget - n1, draw)
    CombinedResult(res.estimate, oracle.calls, model)
  }
}
