package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{CountingOracle, GroupedRecords, LocalRecords, StratifiedLocal}
import scala.util.Random

/** Seeded outputs of the local kernels on small fixed data, pinned to
  * values printed by earlier revisions: the proxy-combination pins and the
  * GroupBy estimates by the per-trial (proxy, index) tuple sort, the GroupBy
  * Λ (and single-oracle seeds 2–3) by the exact minimax solver, the ABAE,
  * uniform and uniform-GroupBy pins by the per-site Stage-2 sizing and
  * labelling loops. Proxies are quantized, so ties between records decide
  * stratum membership.
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
      Seq(0.9387997430271194, 2.3182514711891464, 3.0669306831482515),
      Seq(0.0, 0.0, 1.0), 599)
    assertResult(runSingleOracle(data, 600, GroupByParams(k = 5), 2),
      Seq(1.0839864403271653, 1.842830363828793, 3.1129646847708643),
      Seq(0.0, 1.0, 0.0), 598)
    assertResult(runSingleOracle(data, 450, GroupByParams(k = 3), 3),
      Seq(1.07706199342333, 2.1893745266375513, 3.2155672691716863),
      Seq(0.0, 0.0, 1.0), 449)
  }

  test("runMultiOracle reproduces its seeded outputs") {
    assertResult(runMultiOracle(data, 900, GroupByParams(k = 5), 1),
      Seq(0.7385641872020852, 2.370095713262101, 2.743220300122106),
      Seq(0.2632420775466206, 0.2882599055742887, 0.44849801687909074), 892)
    assertResult(runMultiOracle(data, 900, GroupByParams(k = 5), 2),
      Seq(0.9400452444567711, 2.119358649884437, 3.0690064428360393),
      Seq(0.32279809932230225, 0.6016380967392143, 0.07556380393848348), 892)
    assertResult(runMultiOracle(data, 300, GroupByParams(k = 2), 3),
      Seq(0.8231015536596284, 1.7825582822974582, 3.1835227851406405),
      Seq(0.06386210979007995, 0.39247096310134294, 0.5436669271085772), 297)
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
    assert(a.estimate == 7.221855462475498 && a.oracleCalls == 797)
    val b = run(2)
    assert(b.estimate == 7.060819513315561 && b.oracleCalls == 798)
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
    val alloc1 = Seq(0.0590349305788417, 0.09873642653062674, 0.25857990488666954, 0.30353379756966475, 0.2801149404341974)
    check(reuse = true, 1, 600, 4.120652130136065, alloc1, 598)
    check(reuse = true, 2, 250, 4.008552927248803,
      Seq(0.07049440213027516, 0.18284630157953863, 0.09666766489055761, 0.29984423113347275, 0.3501474002661558), 247)
    check(reuse = false, 1, 600, 4.325178910045088, alloc1, 598)
    check(reuse = false, 3, 250, 3.9367425607644893,
      Seq(0.09932431446837081, 0.16590226646311068, 0.13645854692004805, 0.2554835473473588, 0.34283132480111167), 247)
  }

  test("UniformSampling.run reproduces its seeded outputs") {
    val rec = records()
    val a = UniformSampling.run(rec, 400, 1)
    assert(a.estimate == 4.0531859680750895 && a.oracleCalls == 400 && a.draws.n == 400)
    val b = UniformSampling.run(rec, 1000, 2)
    assert(b.estimate == 3.9928668337603512 && b.oracleCalls == 1000 && b.draws.n == 1000)
  }

  test("uniformSingleOracle and uniformMultiOracle reproduce their seeded outputs") {
    val third = Seq.fill(3)(1.0 / 3)
    assertResult(uniformSingleOracle(data, 600, 1),
      Seq(0.8080498842377511, 2.0394807773809926, 3.2518547199806096), third, 600)
    assertResult(uniformSingleOracle(data, 301, 2),
      Seq(0.9882692916090914, 1.9840818846555428, 3.4549589452054783), third, 301)
    assertResult(uniformMultiOracle(data, 600, 1),
      Seq(0.8965928791457909, 2.165959638561757, 3.4374883836631387), third, 600)
    assertResult(uniformMultiOracle(data, 301, 2),
      Seq(0.7284202648861687, 2.012180057239155, 3.0203321219471424), third, 300)
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
