package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{CountingOracle, FlatOracle, GroupedRecords, LocalRecords, StratifiedLocal}
import scala.util.Random

/** Property: no kernel charges more oracle calls than its budget, over
  * random small datasets, strata counts K, Stage-1 fractions C, budgets
  * (from the smallest accepted up to past exhaustion), group counts G
  * and seeds.
  */
class OracleBudgetPropertySpec extends AnyFunSuite {

  private final case class Case(n: Int, k: Int, c: Double, budget: Int, g: Int, seed: Long) {
    private def rng(stream: Int) = new Random(seed * 31 + stream)
    /** Quantized proxies, so ties between records decide stratum membership. */
    def proxy(stream: Int): Array[Double] = {
      val r = rng(stream)
      Array.fill(n)(math.rint(r.nextDouble() * 8) / 8)
    }
    def records: LocalRecords = {
      val px = proxy(0)
      val r = rng(1)
      LocalRecords(px, px.map(p => r.nextDouble() < p), px.map(p => 3 * p + r.nextGaussian()))
    }
    def grouped: GroupedRecords = {
      val r = rng(2)
      GroupedRecords(Vector.tabulate(g)(j => s"g$j"), Vector.tabulate(g)(j => proxy(3 + j)),
        Array.fill(n)(r.nextInt(g + 1) - 1), Array.fill(n)(r.nextGaussian()))
    }
  }

  /** `minBudget(k, g)` is the smallest budget the kernel accepts. */
  private def cases(minBudget: (Int, Int) => Int): Gen[Case] = for {
    n <- Gen.choose(1, 400)
    k <- Gen.choose(1, 6)
    c <- Gen.choose(0.01, 0.99)
    g <- Gen.choose(1, 4)
    extra <- Gen.choose(0, 2 * n + 50)
    seed <- Gen.choose(0L, Long.MaxValue / 64)
  } yield Case(n, k, c, minBudget(k, g) + extra, g, seed)

  private def holds(gen: Gen[Case])(p: Case => Boolean): Unit = {
    val params = Check.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(20210801L))
    val result = Check.check(params, Prop.forAllNoShrink(gen)(p))
    assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
  }

  test("Abae.run charges at most the budget and reports exactly what its oracle counted") {
    holds(cases((k, _) => 2 * k)) { c =>
      val strat = StratifiedLocal(c.records, c.k)
      val oracle = new CountingOracle(strat)
      val r = Abae.run(strat, oracle, c.budget, AbaeParams(k = c.k, stage1Frac = c.c), c.seed)
      r.oracleCalls == oracle.calls && oracle.calls <= c.budget
    }
  }

  test("ProxyCombiner.run charges at most the budget") {
    holds(cases((k, _) => 2 * k)) { c =>
      val rec = c.records
      val r = ProxyCombiner.run(rec.positive, rec.stat, Vector(rec.proxy, c.proxy(9)), c.budget,
        AbaeParams(k = c.k, stage1Frac = c.c), c.seed)
      r.oracleCalls <= c.budget
    }
  }

  test("GroupBy.runSingleOracle and runMultiOracle charge at most the budget") {
    holds(cases((k, g) => 2 * g * k)) { c =>
      val params = GroupBy.GroupByParams(k = c.k, stage1Frac = c.c)
      GroupBy.runSingleOracle(c.grouped, c.budget, params, c.seed).oracleCalls <= c.budget &&
        GroupBy.runMultiOracle(c.grouped, c.budget, params, c.seed).oracleCalls <= c.budget
    }
  }

  test("UniformSampling.run charges at most the budget and reports exactly what its oracle counted") {
    holds(cases((_, _) => 0)) { c =>
      val rec = c.records
      val flat = new FlatOracle(rec)
      val r = UniformSampling.run(rec.n, flat.query, c.budget, new Random(c.seed))
      r.oracleCalls == flat.calls && r.oracleCalls == r.draws.n && flat.calls <= c.budget
    }
  }

  test("GroupBy.uniformSingleOracle and uniformMultiOracle charge at most the budget") {
    holds(cases((_, _) => 0)) { c =>
      GroupBy.uniformSingleOracle(c.grouped, c.budget, c.seed).oracleCalls <= c.budget &&
        GroupBy.uniformMultiOracle(c.grouped, c.budget, c.seed).oracleCalls <= c.budget
    }
  }
}
