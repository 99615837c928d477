package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{CountingOracle, FlatOracle, LocalRecords, StratifiedLocal}
import repro.sampling.Rng
import repro.metrics.Metrics
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Local-engine tests of Algorithm 1 on fully synthetic in-memory data
  * with known ground truth.
  */
class AbaeSpec extends AnyFunSuite {

  /** Dataset where the proxy orders records by true positive probability:
    * P(positive) = proxy, stat ~ N(5 + 5·proxy, 1).
    */
  private def makeRecords(n: Int, seed: Int): LocalRecords = {
    val rng = new Random(seed)
    val proxy = Array.fill(n)(rng.nextDouble())
    val positive = proxy.map(p => rng.nextDouble() < p)
    val stat = proxy.map(p => 5.0 + 5.0 * p + rng.nextGaussian())
    LocalRecords(proxy, positive, stat)
  }

  private val records = makeRecords(100000, 7)
  private val strat5 = StratifiedLocal(records, 5)

  test("estimate is close to ground truth on a healthy dataset") {
    val res = Abae.run(strat5, new CountingOracle(strat5), budget = 4000,
      AbaeParams(k = 5), seed = 1)
    assert(math.abs(res.estimate - strat5.truth) < 0.15,
      s"est=${res.estimate} truth=${strat5.truth}")
  }

  test("oracle calls never exceed the budget") {
    for (seed <- 1 to 10) {
      val oracle = new CountingOracle(strat5)
      val res = Abae.run(strat5, oracle, budget = 1000, AbaeParams(k = 5), seed)
      assert(res.oracleCalls <= 1000)
      assert(oracle.calls == res.oracleCalls)
    }
  }

  test("oracle calls spend nearly the whole budget (only floor leftovers unspent)") {
    val res = Abae.run(strat5, new CountingOracle(strat5), budget = 1000,
      AbaeParams(k = 5), seed = 2)
    assert(res.oracleCalls >= 1000 - 5 - 2) // K-1 floor leftovers + stage-1 rounding
  }

  test("stage-1 draws are split equally across strata") {
    val res = Abae.run(strat5, new CountingOracle(strat5), budget = 1000,
      AbaeParams(k = 5, stage1Frac = 0.5), seed = 3)
    res.stage1.foreach(e => assert(e.draws == 100))
  }

  test("stage-2 allocation favors high sqrt(p)·sigma strata") {
    val res = Abae.run(strat5, new CountingOracle(strat5), budget = 4000,
      AbaeParams(k = 5), seed = 4)
    // In this dataset p_k increases with stratum; top stratum should get
    // more stage-2 budget than bottom stratum.
    assert(res.allocation.last > res.allocation.head)
  }

  test("final per-stratum draws include both stages when reuse is on") {
    val params = AbaeParams(k = 5, stage1Frac = 0.5, reuse = true)
    val res = Abae.run(strat5, new CountingOracle(strat5), budget = 1000, params, seed = 5)
    for (s <- 0 until 5) {
      assert(res.perStratum(s).draws == res.draws(s).n)
      assert(res.perStratum(s).draws >= res.stage1(s).draws)
    }
  }

  test("without reuse, final estimates use only stage-2 draws") {
    val params = AbaeParams(k = 5, stage1Frac = 0.5, reuse = false)
    val res = Abae.run(strat5, new CountingOracle(strat5), budget = 1000, params, seed = 6)
    for (s <- 0 until 5) {
      assert(res.perStratum(s).draws == res.draws(s).n - res.stage1(s).draws)
    }
  }

  test("identical seeds give identical runs; different seeds differ") {
    val a = Abae.run(strat5, new CountingOracle(strat5), 2000, AbaeParams(), 42)
    val b = Abae.run(strat5, new CountingOracle(strat5), 2000, AbaeParams(), 42)
    val c = Abae.run(strat5, new CountingOracle(strat5), 2000, AbaeParams(), 43)
    assert(a.estimate == b.estimate)
    assert(a.estimate != c.estimate)
  }

  test("estimator is approximately unbiased over trials") {
    val ests = (1 to 300).map(s =>
      Abae.run(strat5, new CountingOracle(strat5), 1000, AbaeParams(), s).estimate)
    val bias = math.abs(Metrics.mean(ests) - strat5.truth)
    val se = Metrics.stddev(ests) / math.sqrt(ests.size)
    assert(bias < 5 * se + 0.01, s"bias=$bias se=$se")
  }

  test("RMSE decreases with budget (Theorem 4.1 direction)") {
    def rmseAt(budget: Int): Double =
      Metrics.rmse((1 to 150).map(s =>
        Abae.run(strat5, new CountingOracle(strat5), budget, AbaeParams(), s).estimate),
        strat5.truth)
    val r500 = rmseAt(500)
    val r4000 = rmseAt(4000)
    assert(r4000 < r500, s"r500=$r500 r4000=$r4000")
  }

  test("ABAE beats uniform sampling on a selective predicate with a good proxy") {
    // Selective: p ≈ proxy⁴ is heavily concentrated in the top strata.
    val rng = new Random(11)
    val n = 80000
    val proxy = Array.fill(n)(rng.nextDouble())
    val positive = proxy.map(p => rng.nextDouble() < p * p * p * p * 0.6)
    val stat = proxy.map(p => 3.0 + 8.0 * p + rng.nextGaussian())
    val rec = LocalRecords(proxy, positive, stat)
    val strat = StratifiedLocal(rec, 5)
    val trials = 300
    val budget = 2000
    val abaeRmse = Metrics.rmse((1 to trials).map(s =>
      Abae.run(strat, new CountingOracle(strat), budget, AbaeParams(), s).estimate),
      strat.truth)
    val unifRmse = Metrics.rmse((1 to trials).map(s =>
      UniformSampling.run(rec, budget, s).estimate), rec.truth)
    assert(abaeRmse < unifRmse, s"abae=$abaeRmse uniform=$unifRmse")
  }

  test("works with K=1 (degenerates to uniform-ish sampling)") {
    val strat1 = StratifiedLocal(records, 1)
    val res = Abae.run(strat1, new CountingOracle(strat1), 1000, AbaeParams(k = 1), 1)
    assert(math.abs(res.estimate - strat1.truth) < 0.5)
  }

  test("works when a stratum has no positives at all") {
    val rng = new Random(12)
    val n = 10000
    val proxy = Array.tabulate(n)(i => i.toDouble / n)
    val positive = proxy.map(p => p > 0.5 && rng.nextDouble() < 0.8)
    val stat = Array.fill(n)(rng.nextGaussian() + 10)
    val strat = StratifiedLocal(LocalRecords(proxy, positive, stat), 5)
    val res = Abae.run(strat, new CountingOracle(strat), 1000, AbaeParams(), 1)
    assert(!res.estimate.isNaN)
    assert(math.abs(res.estimate - strat.truth) < 0.5)
  }

  test("returns 0 when nothing matches the predicate anywhere") {
    val n = 5000
    val strat = StratifiedLocal(
      LocalRecords(Array.fill(n)(0.5), Array.fill(n)(false), Array.fill(n)(1.0)), 5)
    val res = Abae.run(strat, new CountingOracle(strat), 500, AbaeParams(), 1)
    assert(res.estimate == 0.0)
  }

  test("handles a constant statistic (sigma 0 everywhere)") {
    val rng = new Random(13)
    val n = 20000
    val proxy = Array.fill(n)(rng.nextDouble())
    val positive = proxy.map(p => rng.nextDouble() < p)
    val strat = StratifiedLocal(LocalRecords(proxy, positive, Array.fill(n)(7.0)), 5)
    val res = Abae.run(strat, new CountingOracle(strat), 1000, AbaeParams(), 1)
    assert(math.abs(res.estimate - 7.0) < 1e-9)
  }

  test("budget below 2K is rejected") {
    intercept[IllegalArgumentException] {
      Abae.run(strat5, new CountingOracle(strat5), 7, AbaeParams(k = 5), 1)
    }
  }

  test("mismatched strata count is rejected") {
    intercept[IllegalArgumentException] {
      Abae.run(strat5, new CountingOracle(strat5), 1000, AbaeParams(k = 4), 1)
    }
  }

  test("stratum sizes that differ from the samplers' populations are rejected") {
    val samplers = Abae.samplers(strat5.sizes, 1)
    val oracle = new CountingOracle(strat5)
    val short = strat5.sizes.updated(2, strat5.sizes(2) - 1)
    val e = intercept[IllegalArgumentException] {
      Abae.run(short, oracle.query _, samplers, 1000, AbaeParams(k = 5))
    }
    assert(e.getMessage.contains("stratum 2"))
    assert(oracle.calls == 0)
  }

  test("the per-call adapters give the batch path's estimate, draws and charge") {
    // perfbench's traced run goes through the per-call overloads, its
    // untraced run through the batch ones, and it fails an op whose two
    // results differ.
    def bits(ds: Seq[StratumDraws]) =
      ds.map(d => (d.flags.toSeq, d.stats.toSeq.map(java.lang.Double.doubleToRawLongBits)))
    val small = StratifiedLocal(makeRecords(300, 3), 5)
    for ((rec, strat) <- Seq((records, strat5), (makeRecords(300, 3), small));
         b <- Seq(10, 1000, 4000); p <- Seq(AbaeParams(), AbaeParams(stage1Frac = 0.2, reuse = false));
         seed <- 1L to 3L) {
      val perCall = new CountingOracle(strat)
      val a = Abae.run(strat.sizes, perCall.query _, Abae.samplers(strat.sizes, seed), b, p)
      val batch = new CountingOracle(strat)
      val c = Abae.run(strat, batch, b, p, seed)
      assert(a.estimate == c.estimate && bits(a.draws) == bits(c.draws), s"Abae.run, budget $b, $p, seed $seed")
      assert(a.oracleCalls == c.oracleCalls && perCall.calls == batch.calls && batch.calls == c.oracleCalls)

      val flat = new FlatOracle(rec)
      val u = UniformSampling.run(rec.n, flat.query, b, Rng.stream(seed, Long.MaxValue / 3))
      val v = UniformSampling.run(rec, b, seed)
      assert(u.estimate == v.estimate && bits(Seq(u.draws)) == bits(Seq(v.draws)), s"UniformSampling.run, budget $b, seed $seed")
      assert(u.oracleCalls == v.oracleCalls && flat.calls == v.oracleCalls)
    }
  }

  test("stage1Frac bounds are enforced") {
    intercept[IllegalArgumentException] { AbaeParams(stage1Frac = 0.0) }
    intercept[IllegalArgumentException] { AbaeParams(stage1Frac = 1.0) }
    intercept[IllegalArgumentException] { AbaeParams(k = 0) }
  }

  test("finish draws once per stratum in order, sized by the pilot's allocation") {
    val rng = new Random(15)
    def draws(n: Int, p: Double): StratumDraws =
      StratumDraws(Array.fill(n)(rng.nextDouble() < p), Array.fill(n)(10 + 3 * rng.nextGaussian()))
    val pilot = Vector(0.05, 0.2, 0.5, 0.9).map(draws(40, _))
    val n2 = 500
    val sizes = Estimators.stage2Sizes(n2, Estimators.allocationFromPilot(pilot.map(Estimators.fromDraws)))
    assert(sizes.distinct.length == sizes.length) // the allocation is not flat
    for (reuse <- Seq(true, false)) {
      val calls = ArrayBuffer.empty[(Int, Int)]
      val stage2 = ArrayBuffer.empty[StratumDraws]
      val res = Abae.finish(pilot, n2, (s, m) => {
        calls += s -> m
        stage2 += draws(m, 0.5)
        stage2.last
      }, reuse)
      assert(calls.toSeq == sizes.toSeq.zipWithIndex.map(_.swap))
      assert(res.oracleCalls == pilot.map(_.n).sum + sizes.sum)
      def cells(ds: Seq[StratumDraws]) = ds.map(d => (d.flags.toSeq, d.stats.toSeq))
      assert(cells(res.draws) == cells(pilot.zip(stage2).map { case (a, b) => a ++ b }))
      assert(res.stage1 == pilot.map(Estimators.fromDraws))
      val finalDraws = if (reuse) res.draws else stage2.toVector
      assert(res.perStratum == finalDraws.map(Estimators.fromDraws))
      assert(res.estimate == Estimators.combine(res.perStratum))
    }
  }

  test("draws in result cover both stages for the bootstrap") {
    val res = Abae.run(strat5, new CountingOracle(strat5), 1000, AbaeParams(), 1)
    val total = res.draws.map(_.n).sum
    assert(total.toLong == res.oracleCalls)
  }

  test("small strata are capped at their population size") {
    val n = 40
    val rng = new Random(14)
    val strat = StratifiedLocal(
      LocalRecords(Array.fill(n)(rng.nextDouble()), Array.fill(n)(true),
        Array.fill(n)(rng.nextGaussian())), 4)
    val res = Abae.run(strat, new CountingOracle(strat), budget = 200, AbaeParams(k = 4), 1)
    // Budget 200 over 40 records: every record sampled at most once.
    assert(res.oracleCalls <= 40)
    assert(math.abs(res.estimate - strat.truth) < 1e-9) // exhaustive = exact
  }
}
