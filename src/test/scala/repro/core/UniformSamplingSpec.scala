package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.LocalRecords
import repro.metrics.Metrics
import scala.util.Random

class UniformSamplingSpec extends AnyFunSuite {

  private def makeRecords(n: Int, seed: Int): LocalRecords = {
    val rng = new Random(seed)
    val proxy = Array.fill(n)(rng.nextDouble())
    val positive = proxy.map(p => rng.nextDouble() < p)
    val stat = proxy.map(p => 1.0 + 2.0 * p + rng.nextGaussian() * 0.5)
    LocalRecords(proxy, positive, stat)
  }

  private val records = makeRecords(50000, 0)

  test("estimate is close to truth") {
    val res = UniformSampling.run(records, budget = 5000, seed = 1)
    assert(math.abs(res.estimate - records.truth) < 0.1,
      s"est=${res.estimate} truth=${records.truth}")
  }

  test("charges exactly the budget") {
    val res = UniformSampling.run(records, budget = 777, seed = 2)
    assert(res.oracleCalls == 777)
    assert(res.draws.n == 777)
  }

  test("is deterministic in the seed") {
    assert(UniformSampling.run(records, 500, 3).estimate ==
      UniformSampling.run(records, 500, 3).estimate)
  }

  test("sampling the full population reproduces the exact truth") {
    val small = makeRecords(300, 4)
    val res = UniformSampling.run(small, budget = 300, seed = 5)
    assert(math.abs(res.estimate - small.truth) < 1e-12)
  }

  test("estimate is 0 when no positives are drawn") {
    val rec = LocalRecords(Array.fill(100)(0.5), Array.fill(100)(false), Array.fill(100)(2.0))
    assert(UniformSampling.run(rec, 50, 6).estimate == 0.0)
  }

  test("RMSE decreases with budget") {
    def rmseAt(b: Int) = Metrics.rmse(
      (1 to 150).map(s => UniformSampling.run(records, b, s).estimate), records.truth)
    assert(rmseAt(2000) < rmseAt(200))
  }

  test("estimator is approximately unbiased") {
    val ests = (1 to 300).map(s => UniformSampling.run(records, 500, s).estimate)
    val bias = math.abs(Metrics.mean(ests) - records.truth)
    val se = Metrics.stddev(ests) / math.sqrt(ests.size)
    assert(bias < 5 * se + 0.005, s"bias=$bias se=$se")
  }

  test("ci from bootstrap brackets the estimate") {
    val res = UniformSampling.run(records, 1000, 7)
    val ci = Bootstrap.ci(Seq(res.draws), beta = 300, alpha = 0.05, new Random(8))
    assert(ci.contains(res.estimate))
  }
}
