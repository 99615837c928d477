package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{CountingOracle, LocalRecords, StratifiedLocal}
import scala.util.Random

import RecordOrderPropertySpec._

/** Property: ABAE's answer does not depend on the order of a table's
  * records. With distinct proxies, the j-th record of stratum s in proxy
  * order is the same record however the table is ordered, so one seed
  * draws and labels the same records, over random tables, strata counts K,
  * Stage-1 fractions C, budgets (up to past exhaustion), reuse and seeds.
  */
class RecordOrderPropertySpec extends AnyFunSuite {

  private val cases: Gen[Case] = for {
    n <- Gen.choose(1, 400)
    k <- Gen.choose(1, 6)
    c <- Gen.choose(0.01, 0.99)
    extra <- Gen.choose(0, 2 * n + 50)
    reuse <- Gen.oneOf(true, false)
    seed <- Gen.choose(0L, Long.MaxValue / 64)
  } yield Case(n, k, c, 2 * k + extra, reuse, seed)

  test("Abae.run gives the same answer on a table and on a permutation of its records") {
    val params = Check.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(20210801L))
    val result = Check.check(params, Prop.forAllNoShrink(cases)(c => c.answer(c.records) == c.answer(c.permuted)))
    assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
  }
}

object RecordOrderPropertySpec {
  private final case class Case(n: Int, k: Int, c: Double, budget: Int, reuse: Boolean, seed: Long) {
    private val rng = new Random(seed)
    /** Distinct proxies: a shuffled grid, each value jittered within its cell. */
    val records: LocalRecords = {
      val proxy = rng.shuffle(Vector.tabulate(n)(i => (i + 0.5 * rng.nextDouble()) / n)).toArray
      LocalRecords(proxy, proxy.map(p => rng.nextDouble() < p), proxy.map(p => 3 * p + rng.nextGaussian()))
    }
    val permuted: LocalRecords = {
      val perm = rng.shuffle(Vector.range(0, n)).toArray
      LocalRecords(perm.map(records.proxy), perm.map(records.positive), perm.map(records.stat))
    }

    /** Everything `Abae.run` returns, in comparable form. */
    def answer(rec: LocalRecords) = {
      val strat = StratifiedLocal(rec, k)
      val r = Abae.run(strat, new CountingOracle(strat), budget, AbaeParams(k, c, reuse), seed)
      (r.estimate, r.perStratum, r.stage1, r.allocation.toSeq, r.draws.map(d => (d.flags.toSeq, d.stats.toSeq)),
        r.oracleCalls)
    }
  }
}
