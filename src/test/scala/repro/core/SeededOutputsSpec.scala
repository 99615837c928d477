package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{CountingOracle, GroupedRecords, LocalRecords, StratifiedLocal}
import scala.util.Random

/** Seeded outputs of the local kernels on small fixed data, pinned to
  * values printed since the sampler draws by rejection against a bitset on
  * a `SplittableRandom` (every pin moved then: a seed picks other records).
  * Proxies are quantized, so ties between records decide stratum
  * membership.
  */
class SeededOutputsSpec extends AnyFunSuite {

  import GroupBy._

  private def grouped(): GroupedRecords = {
    val n = 3000
    val rates = Vector(0.2, 0.12, 0.05)
    val rng = new Random(11)
    val g = rates.length
    val thetas = Vector.fill(g)(new Array[Double](n))
    val group = new Array[Int](n)
    val stat = new Array[Double](n)
    for (i <- 0 until n) {
      for (j <- 0 until g) thetas(j)(i) = math.rint(rates(j) * (0.2 + 1.6 * rng.nextDouble()) * 64) / 64
      val u = rng.nextDouble()
      var cum = 0.0
      group(i) = -1
      var j = 0
      while (j < g && group(i) == -1) {
        cum += thetas(j)(i)
        if (u < cum) group(i) = j
        j += 1
      }
      stat(i) = (if (group(i) >= 0) group(i) + 1.0 else 0.0) + rng.nextGaussian()
    }
    GroupedRecords(Vector("a", "b", "c"), thetas, group, stat)
  }

  private val data = grouped()

  private def records(): LocalRecords = {
    val n = 5000
    val rng = new Random(13)
    val proxy = Array.fill(n)(math.rint(rng.nextDouble() * 0.5 * 32) / 32)
    val positive = proxy.map(p => rng.nextDouble() < p)
    val stat = proxy.map(p => 2.0 + 6.0 * p + rng.nextGaussian())
    LocalRecords(proxy, positive, stat)
  }

  private def assertResult(r: GroupByResult, estimates: Seq[Double], lambdas: Seq[Double], calls: Long): Unit = {
    assert(r.estimates == estimates)
    assert(r.lambdas.toSeq == lambdas)
    assert(r.oracleCalls == calls)
  }

  test("runSingleOracle reproduces its seeded outputs") {
    assertResult(runSingleOracle(data, 600, GroupByParams(k = 5), 1),
      Seq(0.9613454490229915, 1.9203606677860363, 3.090109445958856),
      Seq(0.0, 0.0, 1.0), 599)
    assertResult(runSingleOracle(data, 600, GroupByParams(k = 5), 2),
      Seq(0.9749477520829878, 2.0415837345681287, 3.221552188219404),
      Seq(0.0, 0.0, 1.0), 598)
    assertResult(runSingleOracle(data, 450, GroupByParams(k = 3), 3),
      Seq(0.9611215673853952, 2.1555356384662687, 3.426554977741979),
      Seq(0.0, 0.0, 1.0), 449)
  }

  test("runMultiOracle reproduces its seeded outputs") {
    assertResult(runMultiOracle(data, 900, GroupByParams(k = 5), 1),
      Seq(1.1153037385967972, 2.0891348502710194, 2.7241019165195843),
      Seq(0.22970934637316642, 0.5866985726575676, 0.1835920809692659), 893)
    assertResult(runMultiOracle(data, 900, GroupByParams(k = 5), 2),
      Seq(1.2522226922738326, 1.8201089157975812, 3.0271374571129055),
      Seq(0.21510339852365734, 0.2981750948504768, 0.48672150662586594), 892)
    assertResult(runMultiOracle(data, 300, GroupByParams(k = 2), 3),
      Seq(0.953788727193962, 1.397843699126953, 2.4327400380262123),
      Seq(0.9933236531567124, 0.006095613093871548, 5.80733749416029E-4), 297)
  }

  test("ProxyCombiner.run reproduces its seeded outputs") {
    val n = 4000
    val rng = new Random(12)
    val theta = Array.fill(n)(rng.nextDouble() * 0.6)
    val positive = theta.map(t => rng.nextDouble() < t)
    val stat = theta.map(t => 4.0 + 8.0 * t + rng.nextGaussian())
    val good = theta.map(t => math.rint((t + rng.nextGaussian() * 0.1) * 32) / 32)
    val junk = Array.fill(n)(rng.nextDouble())
    def run(seed: Long) = ProxyCombiner.run(positive, stat, Vector(good, junk), 800, AbaeParams(k = 5), seed)
    val a = run(1)
    assert(a.estimate == 7.366984052484087 && a.oracleCalls == 799)
    val b = run(2)
    assert(b.estimate == 7.308387131838479 && b.oracleCalls == 798)
  }

  test("ProxyCombiner.run reproduces its seeded model") {
    // The data of the test above.
    val n = 4000
    val rng = new Random(12)
    val theta = Array.fill(n)(rng.nextDouble() * 0.6)
    val positive = theta.map(t => rng.nextDouble() < t)
    val stat = theta.map(t => 4.0 + 8.0 * t + rng.nextGaussian())
    val good = theta.map(t => math.rint((t + rng.nextGaussian() * 0.1) * 32) / 32)
    val junk = Array.fill(n)(rng.nextDouble())
    def model(seed: Long) =
      ProxyCombiner.run(positive, stat, Vector(good, junk), 800, AbaeParams(k = 5), seed).model.get
    val a = model(1)
    assert(a.weights.toSeq == Seq(0.8551130612226103, 0.1155022488238507) && a.bias == -1.0089473688902524)
    val b = model(2)
    assert(b.weights.toSeq == Seq(0.7479448573193967, 0.006567588770444435) && b.bias == -0.927538987402112)
  }

  test("Abae.run reproduces its seeded outputs, with and without reuse") {
    val strat = StratifiedLocal(records(), 5)
    def check(reuse: Boolean, seed: Long, budget: Int, estimate: Double, allocation: Seq[Double], calls: Long): Unit = {
      val oracle = new CountingOracle(strat)
      val r = Abae.run(strat, oracle, budget, AbaeParams(k = 5, reuse = reuse), seed)
      assert(r.estimate == estimate)
      assert(r.allocation.toSeq == allocation)
      assert(r.oracleCalls == calls && oracle.calls == calls)
    }
    val alloc1 = Seq(0.05808893106565599, 0.13163176966889073, 0.2617145565703246, 0.22941482792589746, 0.31914991476923127)
    check(reuse = true, 1, 600, 4.17838584091095, alloc1, 597)
    check(reuse = true, 2, 250, 4.176755220856456,
      Seq(0.20558521913562444, 0.33555711169994656, 0.059389986780224224, 0.1404307889169376, 0.25903689346726727), 247)
    check(reuse = false, 1, 600, 4.16243005119128, alloc1, 597)
    check(reuse = false, 3, 250, 4.200857095180331,
      Seq(0.08332659266307631, 0.12506475487372018, 0.17321493752663808, 0.27892326894927033, 0.3394704459872951), 247)
  }

  test("UniformSampling.run reproduces its seeded outputs") {
    val rec = records()
    val a = UniformSampling.run(rec, 400, 1)
    assert(a.estimate == 4.093702061194521 && a.oracleCalls == 400 && a.draws.n == 400)
    val b = UniformSampling.run(rec, 1000, 2)
    assert(b.estimate == 3.9845763775912424 && b.oracleCalls == 1000 && b.draws.n == 1000)
  }

  test("uniformSingleOracle and uniformMultiOracle reproduce their seeded outputs") {
    val third = Seq.fill(3)(1.0 / 3)
    assertResult(uniformSingleOracle(data, 600, 1),
      Seq(1.063643004965534, 1.9447082538381957, 3.023756886157401), third, 600)
    assertResult(uniformSingleOracle(data, 301, 2),
      Seq(0.8349783277430798, 2.1667947578411404, 3.1024345903191444), third, 301)
    assertResult(uniformMultiOracle(data, 600, 1),
      Seq(1.150621221779865, 2.159576474039628, 3.2475243319981146), third, 600)
    assertResult(uniformMultiOracle(data, 301, 2),
      Seq(0.5413940250179278, 1.5760951350055121, 2.8606316217336003), third, 300)
  }

  test("a warm stratification memo gives the same results as a fresh one") {
    val warm = grouped()
    runSingleOracle(warm, 600, GroupByParams(k = 5), 4)
    runMultiOracle(warm, 900, GroupByParams(k = 5), 4)
    for (seed <- 5L to 6L) {
      val w = runSingleOracle(warm, 600, GroupByParams(k = 5), seed)
      val f = runSingleOracle(warm.copy(), 600, GroupByParams(k = 5), seed)
      assert(w.estimates == f.estimates && w.lambdas.toSeq == f.lambdas.toSeq && w.oracleCalls == f.oracleCalls)
      val wm = runMultiOracle(warm, 900, GroupByParams(k = 5), seed)
      val fm = runMultiOracle(warm.copy(), 900, GroupByParams(k = 5), seed)
      assert(wm.estimates == fm.estimates && wm.lambdas.toSeq == fm.lambdas.toSeq && wm.oracleCalls == fm.oracleCalls)
    }
  }

  test("GroupedRecords.strata is computed once per K") {
    val d = grouped()
    val five = d.strata(5)
    assert(five.length == d.g && five.forall(_.k == 5))
    assert(d.strata(5) eq five)
    assert(d.strata(3) ne five)
    assert(d.strata(3) eq d.strata(3))
    assert(d.copy().strata(5) ne five)
  }
}
