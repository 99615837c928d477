package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.GroupedRecords
import scala.util.Random

/** Seeded outputs of the GroupBy and proxy-combination kernels on small
  * fixed data, pinned to the values the per-trial (proxy, index) tuple
  * sort produced. Proxies are quantized, so ties between records decide
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

  private def assertResult(r: GroupByResult, estimates: Seq[Double], lambdas: Seq[Double], calls: Long): Unit = {
    assert(r.estimates == estimates)
    assert(r.lambdas.toSeq == lambdas)
    assert(r.oracleCalls == calls)
  }

  test("runSingleOracle reproduces its seeded outputs") {
    assertResult(runSingleOracle(data, 600, GroupByParams(k = 5), 1),
      Seq(0.9387997430271194, 2.3182514711891464, 3.0669306831482515),
      Seq(3.0705757289444572E-21, 6.630762530539082E-45, 1.0), 599)
    assertResult(runSingleOracle(data, 600, GroupByParams(k = 5), 2),
      Seq(1.0225327423457393, 1.9913618677426617, 3.081809177391265),
      Seq(3.0209842210755803E-16, 0.9999999999999998, 2.24829239793495E-34), 597)
    assertResult(runSingleOracle(data, 450, GroupByParams(k = 3), 3),
      Seq(1.0502060639454736, 2.246547619394066, 2.9941562739053813),
      Seq(3.254621829553268E-16, 3.0863031168786583E-34, 0.9999999999999998), 447)
  }

  test("runMultiOracle reproduces its seeded outputs") {
    assertResult(runMultiOracle(data, 900, GroupByParams(k = 5), 1),
      Seq(0.7385641872020852, 2.370095713262101, 2.743220300122106),
      Seq(0.26324207753928097, 0.28825990560840975, 0.4484980168523093), 892)
    assertResult(runMultiOracle(data, 900, GroupByParams(k = 5), 2),
      Seq(0.9400452444567711, 2.119358649884437, 3.0690064428360393),
      Seq(0.32279809932685005, 0.601638096713505, 0.0755638039596449), 892)
    assertResult(runMultiOracle(data, 300, GroupByParams(k = 2), 3),
      Seq(0.8231015536596284, 1.7825582822974582, 3.1835227851406405),
      Seq(0.06386210979371537, 0.39247096310462404, 0.5436669271016606), 297)
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
