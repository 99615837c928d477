package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.metrics.Metrics
import repro.sampling.{PermutationSampler, Rng}
import scala.util.Random

class ProxyCombinerSpec extends AnyFunSuite {

  private val n = 50000
  private val rng = new Random(0)
  private val theta = Array.fill(n)(rng.nextDouble() * 0.6)
  private val positive = theta.map(t => rng.nextDouble() < t)
  private val stat = theta.map(t => 4.0 + 8.0 * t + rng.nextGaussian())
  private def noisy(tau: Double, seed: Int): Array[Double] = {
    val r = new Random(seed)
    theta.map(t => math.min(1.0, math.max(0.0, t + r.nextGaussian() * tau)))
  }
  private val good = noisy(0.05, 1)
  private val junk = Array.fill(n)(new Random(2).nextDouble())
  private val truth = {
    val pos = stat.zip(positive).filter(_._2).map(_._1)
    pos.sum / pos.length
  }

  test("combineScores separates positives from negatives") {
    val pilot = new PermutationSampler(n, Rng.stream(5, 0)).next(2000)
    val (scores, _) = ProxyCombiner.combineScores(
      Vector(good, junk), pilot, pilot.map(positive))
    val posMean = scores.zip(positive).filter(_._2).map(_._1).sum / positive.count(identity)
    val negMean = scores.zip(positive).filterNot(_._2).map(_._1).sum / positive.count(!_)
    assert(posMean > negMean + 0.1, s"pos=$posMean neg=$negMean")
  }

  test("combineScores effectively ignores the junk proxy") {
    val pilot = new PermutationSampler(n, Rng.stream(6, 0)).next(3000)
    val (_, model) = ProxyCombiner.combineScores(
      Vector(good, junk), pilot, pilot.map(positive))
    assert(math.abs(model.weights(0)) > 3 * math.abs(model.weights(1)),
      s"weights=${model.weights.toSeq}")
  }

  test("run estimates near truth and respects the budget") {
    val res = ProxyCombiner.run(positive, stat, Vector(good, junk), budget = 3000,
      AbaeParams(k = 5), seed = 1)
    assert(res.oracleCalls <= 3000)
    assert(math.abs(res.estimate - truth) < 0.3, s"est=${res.estimate} truth=$truth")
  }

  test("combineScores scores every record as predictProb does") {
    val pilot = new PermutationSampler(n, Rng.stream(7, 0)).next(2500)
    val (scores, model) = ProxyCombiner.combineScores(Vector(good, junk), pilot, pilot.map(positive))
    val differ = (0 until n).filter(i => scores(i) != model.predictProb(Array(good(i), junk(i))))
    assert(differ.isEmpty, s"${differ.length} records differ, first ${differ.headOption}")
  }

  test("without a model every record scores 0.0") {
    assert(ProxyCombiner.score(Vector(good, junk), None).forall(_ == 0.0))
  }

  test("run is deterministic in the seed") {
    def once(seed: Long) = ProxyCombiner.run(positive, stat, Vector(good, junk),
      2000, AbaeParams(), seed).estimate
    assert(once(3) == once(3))
    assert(once(3) != once(4))
  }

  test("combined proxy matches or beats the junk-only proxy in RMSE") {
    import repro.data.{CountingOracle, LocalRecords, StratifiedLocal}
    val trials = 60
    val budget = 2000
    val combined = Metrics.rmse((1 to trials).map(s =>
      ProxyCombiner.run(positive, stat, Vector(good, junk), budget,
        AbaeParams(), s).estimate), truth)
    val junkStrat = StratifiedLocal(LocalRecords(junk, positive, stat), 5)
    val junkRmse = Metrics.rmse((1 to trials).map(s =>
      Abae.run(junkStrat, new CountingOracle(junkStrat), budget,
        AbaeParams(), s).estimate), junkStrat.truth)
    assert(combined < junkRmse, s"combined=$combined junk=$junkRmse")
  }

  test("run rejects an empty proxy vector") {
    val e = intercept[IllegalArgumentException] {
      ProxyCombiner.run(positive, stat, Vector.empty, 2000, AbaeParams(), 1)
    }
    assert(e.getMessage.contains("no proxy columns"))
  }

  test("run rejects a proxy column shorter than the records") {
    val e = intercept[IllegalArgumentException] {
      ProxyCombiner.run(positive, stat, Vector(good, junk.take(n - 1)), 2000, AbaeParams(), 1)
    }
    assert(e.getMessage.contains(s"proxy 1 has ${n - 1} values for $n records"))
  }

  test("run rejects a non-finite proxy value, naming its column and record") {
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val col = junk.clone()
      col(123) = bad
      val e = intercept[IllegalArgumentException] {
        ProxyCombiner.run(positive, stat, Vector(good, col), 2000, AbaeParams(), 1)
      }
      assert(e.getMessage.contains("proxy 1 has a non-finite value") &&
        e.getMessage.contains("at record 123"), e.getMessage)
    }
  }

  test("run names the first non-finite proxy value by record, then by column") {
    def message(bad: (Int, Int, Double)*): String = {
      val cols = Vector(good.clone(), junk.clone())
      for ((j, i, v) <- bad) cols(j)(i) = v
      intercept[IllegalArgumentException] {
        ProxyCombiner.run(positive, stat, cols, 2000, AbaeParams(), 1)
      }.getMessage
    }
    val inf = Double.PositiveInfinity
    assert(message((0, 500, Double.NaN), (1, 123, inf)) ==
      "requirement failed: proxy 1 has a non-finite value (Infinity) at record 123")
    assert(message((0, 123, Double.NaN), (1, 500, inf)) ==
      "requirement failed: proxy 0 has a non-finite value (NaN) at record 123")
    assert(message((1, 77, Double.NegativeInfinity), (0, 77, inf), (0, 9000, Double.NaN)) ==
      "requirement failed: proxy 0 has a non-finite value (Infinity) at record 77")
  }

  test("run on a one-class pilot skips the fit and stratifies on index order") {
    import repro.data.{Oracle, Stratification}
    val m = 3000
    val budget = 600
    // Without reuse, so the reference below also checks that `run` honours it.
    val params = AbaeParams(k = 5, reuse = false)
    val seed = 8L
    // The statistic rises with the index, so index-range strata shape the estimate.
    val st = Array.tabulate(m)(i => 4.0 + 6.0 * i / m + (i % 7))
    val proxies = Vector(good.take(m), junk.take(m))
    for (label <- Seq(false, true)) {
      val pos = Array.fill(m)(label)
      val res = ProxyCombiner.run(pos, st, proxies, budget, params, seed)
      assert(res.model.isEmpty, s"all-$label: fitted a model")

      // The same pilot and Stage 2 over strata that are index ranges.
      val rng = Rng.stream(seed, 13)
      val oracle = new Oracle(i => (pos(i), st(i)))
      val n1 = math.max(params.k * 2, (budget * params.stage1Frac).toInt)
      val pilotIdx = new PermutationSampler(m, rng).next(n1)
      val pilot = StratumDraws.label(pilotIdx, oracle.query)
      val strat = Stratification(Array.tabulate(m)(_.toDouble), params.k)
      val taken = new java.util.BitSet(m)
      pilotIdx.foreach(taken.set)
      val stage2 = PermutationSampler.excluding(strat, taken)
      val ref = Abae.finish(StratumDraws.byStratum(strat, pilotIdx, pilot.flags, pilot.stats, pilot.n), budget - n1,
        (s, k) => StratumDraws.label(stage2(s, rng).next(k), oracle.query), params.reuse)
      assert(res.estimate == ref.estimate && res.oracleCalls == oracle.calls,
        s"all-$label: ${res.estimate} / ${res.oracleCalls} vs ${ref.estimate} / ${oracle.calls}")
    }
    val fitted = ProxyCombiner.run(positive, stat, Vector(good, junk), 2000, params, seed)
    assert(fitted.model.isDefined)
  }

  test("run rejects undersized budgets") {
    intercept[IllegalArgumentException] {
      ProxyCombiner.run(positive, stat, Vector(good), 5, AbaeParams(k = 5), 1)
    }
  }
}
