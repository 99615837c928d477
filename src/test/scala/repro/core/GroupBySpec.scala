package repro.core

import repro.SparkSpec
import repro.data.{ExtDatasets, GroupedRecords}
import repro.metrics.Metrics
import scala.util.Random

class GroupBySpec extends SparkSpec {

  import GroupBy._

  private def simpleGrouped(n: Int, rates: Vector[Double], seed: Int): GroupedRecords = {
    val rng = new Random(seed)
    val g = rates.length
    val thetas = Vector.fill(g)(new Array[Double](n))
    val group = new Array[Int](n)
    val stat = new Array[Double](n)
    for (i <- 0 until n) {
      for (j <- 0 until g) thetas(j)(i) = rates(j) * (0.2 + 1.6 * rng.nextDouble())
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
    GroupedRecords(Vector.tabulate(g)(j => s"g$j"), thetas, group, stat)
  }

  private lazy val data = simpleGrouped(80000, Vector(0.15, 0.10, 0.05), 1)

  // ----------------------------------------------------------------- oracles

  test("SingleGroupOracle charges every invocation") {
    val o = keyOracle(data)
    o.query(0); o.query(0); o.query(1)
    assert(o.calls == 3)
    assert(o.query(0) == ((data.group(0), data.stat(0))))
  }

  test("PerGroupOracle charges every invocation") {
    val os = memberOracles(data)
    os(0).query(5); os(1).query(5); os(0).query(5)
    assert(os.map(_.calls) == Vector(2, 1, 0))
    assert(os(0).query(5) == ((data.group(5) == 0, data.stat(5))))
  }

  // ------------------------------------------------------------ variance math

  test("baseVariance is infinite for a group the stratification never sees") {
    val cells = Vector.fill(3)(StratumEstimates(10, 0, 0.0, 0.0, 0.0))
    assert(baseVariance(cells, Array(0.3, 0.3, 0.4)).isInfinite)
  }

  test("baseVariance is infinite when a positive-mass stratum has zero allocation") {
    val cells = Vector(
      StratumEstimates(10, 5, 0.5, 1.0, 1.0),
      StratumEstimates(10, 2, 0.2, 1.0, 1.0))
    assert(baseVariance(cells, Array(1.0, 0.0)).isInfinite)
  }

  test("baseVariance matches the Eq. 10/11 inner sum on a hand example") {
    val cells = Vector(
      StratumEstimates(10, 5, 0.5, 1.0, 2.0),
      StratumEstimates(10, 5, 0.5, 1.0, 1.0))
    val t = Array(0.5, 0.5)
    // w = 0.5 each; terms: 0.25*4/(0.5*0.5) + 0.25*1/(0.5*0.5) = 4 + 1 = 5
    assert(math.abs(baseVariance(cells, t) - 5.0) < 1e-12)
  }

  // -------------------------------------------------------- uniform baselines

  test("uniformSingleOracle estimates per-group means and respects budget") {
    val res = uniformSingleOracle(data, budget = 20000, seed = 2)
    assert(res.oracleCalls == 20000)
    res.estimates.zip(data.truth).foreach { case (e, t) =>
      assert(math.abs(e - t) < 0.2, s"est=$e truth=$t")
    }
  }

  test("uniformMultiOracle splits the budget across group oracles") {
    val res = uniformMultiOracle(data, budget = 30000, seed = 3)
    assert(res.oracleCalls == 30000 - 30000 % 3)
    res.estimates.zip(data.truth).foreach { case (e, t) =>
      assert(math.abs(e - t) < 0.3, s"est=$e truth=$t")
    }
  }

  // ----------------------------------------------------------- ABAE group-bys

  test("runSingleOracle estimates all groups near truth within budget") {
    val res = runSingleOracle(data, budget = 6000, GroupByParams(k = 5), seed = 4)
    assert(res.oracleCalls <= 6000)
    assert(math.abs(res.lambdas.sum - 1.0) < 1e-6)
    res.estimates.zip(data.truth).foreach { case (e, t) =>
      assert(math.abs(e - t) < 0.4, s"est=$e truth=$t")
    }
  }

  test("runMultiOracle estimates all groups near truth within budget") {
    val res = runMultiOracle(data, budget = 9000, GroupByParams(k = 5), seed = 5)
    assert(res.oracleCalls <= 9000)
    res.estimates.zip(data.truth).foreach { case (e, t) =>
      assert(math.abs(e - t) < 0.4, s"est=$e truth=$t")
    }
  }

  test("runSingleOracle is deterministic in the seed") {
    val a = runSingleOracle(data, 4000, GroupByParams(), 6)
    val b = runSingleOracle(data, 4000, GroupByParams(), 6)
    assert(a.estimates == b.estimates)
  }

  test("runMultiOracle allocates more Stage-2 budget to the rarer group") {
    // Group 1 is 10x rarer than group 0 → larger per-sample variance →
    // minimax pushes Λ toward it.
    val skewed = simpleGrouped(100000, Vector(0.3, 0.03), 7)
    val lambdas = (1 to 5).map(s =>
      runMultiOracle(skewed, 8000, GroupByParams(k = 5), s).lambdas)
    val meanL1 = lambdas.map(_(1)).sum / lambdas.size
    assert(meanL1 > 0.55, s"mean lambda for rare group = $meanL1")
  }

  test("ABAE group-by (multi oracle) beats uniform on max-RMSE") {
    val rec = ExtDatasets.collectGrouped(
      ExtDatasets.syntheticGroupByMulti(spark, rows = 100000), Vector("a", "b", "c", "d"))
    val trials = 40
    val budget = 8000
    def maxRmse(runs: Seq[Vector[Double]]): Double =
      (0 until 4).map(g => Metrics.rmse(runs.map(_(g)), rec.truth(g))).max
    val abae = maxRmse((1 to trials).map(s =>
      runMultiOracle(rec, budget, GroupByParams(k = 5), s).estimates))
    val unif = maxRmse((1 to trials).map(s =>
      uniformMultiOracle(rec, budget, s).estimates))
    assert(abae < unif, s"abae=$abae uniform=$unif")
  }

  test("ABAE group-by (single oracle) matches uniform on the symmetric synthetic") {
    // With symmetric group rates and constant within-group σ, the only
    // single-oracle gain is member yield (~5-10% in variance): assert
    // parity within Monte-Carlo slack.
    val rec = ExtDatasets.collectGrouped(
      ExtDatasets.syntheticGroupBySingle(spark, rows = 100000), Vector("a", "b", "c", "d"))
    val trials = 40
    val budget = 8000
    def maxRmse(runs: Seq[Vector[Double]]): Double =
      (0 until 4).map(g => Metrics.rmse(runs.map(_(g)), rec.truth(g))).max
    val abae = maxRmse((1 to trials).map(s =>
      runSingleOracle(rec, budget, GroupByParams(k = 5), s).estimates))
    val unif = maxRmse((1 to trials).map(s =>
      uniformSingleOracle(rec, budget, s).estimates))
    assert(abae < unif * 1.08, s"abae=$abae uniform=$unif")
  }

  test("ABAE group-by (single oracle) beats uniform on the rare-group celeba query") {
    // Asymmetric rates (gray 4% vs blond 15%) with a strong classifier
    // proxy: the minimax allocation and concentration pay off on the
    // max-RMSE (which the rare group dominates).
    val rec = ExtDatasets.collectGrouped(
      ExtDatasets.celebaGroupBy(spark), Vector("gray", "blond"))
    val trials = 40
    val budget = 4000
    def maxRmse(runs: Seq[Vector[Double]]): Double =
      (0 until 2).map(g => Metrics.rmse(runs.map(_(g)), rec.truth(g))).max
    val abae = maxRmse((1 to trials).map(s =>
      runSingleOracle(rec, budget, GroupByParams(k = 5), s).estimates))
    val unif = maxRmse((1 to trials).map(s =>
      uniformSingleOracle(rec, budget, s).estimates))
    assert(abae < unif, s"abae=$abae uniform=$unif")
  }

  test("GroupByParams bounds are enforced") {
    intercept[IllegalArgumentException] { GroupByParams(stage1Frac = 0.0) }
    intercept[IllegalArgumentException] { GroupByParams(stage1Frac = 1.0) }
    intercept[IllegalArgumentException] { GroupByParams(stage1Frac = 1.001) }
    intercept[IllegalArgumentException] { GroupByParams(k = 0) }
  }

  // ------------------------------------------------------- input validation

  private def tiny(
      proxies: Vector[Array[Double]] = Vector(Array(0.1, 0.2, 0.3), Array(0.4, 0.5, 0.6)),
      group: Array[Int] = Array(0, 1, -1),
      stat: Array[Double] = Array(1.0, 2.0, 0.0),
  ): GroupedRecords = GroupedRecords(Vector("a", "b"), proxies, group, stat)

  private def rejects(message: String)(build: => GroupedRecords): Unit = {
    val e = intercept[IllegalArgumentException](build)
    assert(e.getMessage.contains(message), e.getMessage)
  }

  test("GroupedRecords rejects a proxy count other than G") {
    tiny()
    rejects("1 proxy columns for 2 groups")(tiny(proxies = Vector(Array(0.1, 0.2, 0.3))))
  }

  test("GroupedRecords rejects a proxy or group column of the wrong length") {
    rejects("proxy 1 has 2 values for 3 records")(tiny(proxies = Vector(Array(0.1, 0.2, 0.3), Array(0.4, 0.5))))
    rejects("group has 4 values for 3 records")(tiny(group = Array(0, 1, -1, 0)))
  }

  test("GroupedRecords rejects a group key outside -1..G-1, naming the record") {
    rejects("group has key 2 at record 1, outside -1..1")(tiny(group = Array(0, 2, -1)))
    rejects("group has key -2 at record 2")(tiny(group = Array(0, 1, -2)))
  }

  test("GroupedRecords rejects a non-finite proxy value, naming its column and record") {
    for (v <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity))
      rejects(s"proxy 1 has a non-finite value ($v) at record 2")(
        tiny(proxies = Vector(Array(0.1, 0.2, 0.3), Array(0.4, 0.5, v))))
  }

  test("GroupedRecords rejects a non-finite statistic on a group member, not on a non-member") {
    for (v <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity))
      rejects(s"stat has a non-finite value ($v) at record 1, a member of group 1")(
        tiny(stat = Array(1.0, v, 0.0)))
    assert(tiny(stat = Array(1.0, 2.0, Double.NaN)).truth == Vector(1.0, 2.0))
  }

  test("budget guards reject undersized budgets") {
    intercept[IllegalArgumentException] {
      runSingleOracle(data, budget = 10, GroupByParams(k = 5), seed = 1)
    }
    intercept[IllegalArgumentException] {
      runMultiOracle(data, budget = 10, GroupByParams(k = 5), seed = 1)
    }
  }
}
