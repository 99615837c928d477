package repro.data

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class LocalSpec extends AnyFunSuite {

  private def records(n: Int, seed: Int = 0): LocalRecords = {
    val rng = new Random(seed)
    LocalRecords(
      Array.fill(n)(rng.nextDouble()),
      Array.fill(n)(rng.nextBoolean()),
      Array.fill(n)(rng.nextGaussian() * 2 + 5))
  }

  // ------------------------------------------------------------ LocalRecords

  test("LocalRecords.truth averages statistics over positives only") {
    val r = LocalRecords(
      Array(0.1, 0.2, 0.3),
      Array(true, false, true),
      Array(2.0, 100.0, 4.0))
    assert(r.truth == 3.0)
  }

  test("LocalRecords.truth of no positives is 0") {
    val r = LocalRecords(Array(0.5), Array(false), Array(9.0))
    assert(r.truth == 0.0)
  }

  test("LocalRecords.positiveRate counts correctly") {
    val r = LocalRecords(
      Array(0.1, 0.2, 0.3, 0.4),
      Array(true, false, true, false),
      Array(1.0, 1.0, 1.0, 1.0))
    assert(r.positiveRate == 0.5)
  }

  test("LocalRecords rejects misaligned columns") {
    intercept[IllegalArgumentException] {
      LocalRecords(Array(0.1), Array(true, false), Array(1.0))
    }
  }

  test("LocalRecords rejects a non-finite proxy value, naming the record") {
    for (v <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val e = intercept[IllegalArgumentException](LocalRecords(Array(0.1, v), Array(true, false), Array(1.0, 2.0)))
      assert(e.getMessage.contains(s"proxy has a non-finite value ($v) at record 1"), e.getMessage)
    }
  }

  test("LocalRecords rejects a non-finite statistic on a positive record, not on a negative one") {
    for (v <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val e = intercept[IllegalArgumentException](LocalRecords(Array(0.1, 0.2), Array(false, true), Array(1.0, v)))
      assert(e.getMessage.contains(s"stat has a non-finite value ($v) at record 1, a positive record"), e.getMessage)
    }
    assert(LocalRecords(Array(0.1, 0.2), Array(true, false), Array(1.0, Double.NaN)).truth == 1.0)
  }

  // -------------------------------------------------------------- ntile math

  test("ntileSizes matches SQL NTILE semantics") {
    assert(StratifiedLocal.ntileSizes(10, 5).toSeq == Seq(2, 2, 2, 2, 2))
    assert(StratifiedLocal.ntileSizes(11, 5).toSeq == Seq(3, 2, 2, 2, 2))
    assert(StratifiedLocal.ntileSizes(13, 5).toSeq == Seq(3, 3, 3, 2, 2))
    assert(StratifiedLocal.ntileSizes(3, 5).toSeq == Seq(1, 1, 1, 0, 0))
  }

  test("ntileSizes always partitions n") {
    val rng = new Random(1)
    for (_ <- 1 to 100) {
      val n = rng.nextInt(1000)
      val k = 1 + rng.nextInt(12)
      assert(StratifiedLocal.ntileSizes(n, k).sum == n)
    }
  }

  test("ntileIndices partitions all records") {
    val rng = new Random(2)
    val proxy = Array.fill(97)(rng.nextDouble())
    val idx = StratifiedLocal.ntileIndices(proxy, 5)
    assert(idx.map(_.length).sum == 97)
    assert(idx.flatten.toSet == (0 until 97).toSet)
  }

  test("ntileIndices orders strata by proxy score") {
    val rng = new Random(3)
    val proxy = Array.fill(1000)(rng.nextDouble())
    val idx = StratifiedLocal.ntileIndices(proxy, 4)
    // max proxy of stratum s <= min proxy of stratum s+1
    for (s <- 0 until 3) {
      val maxLow = idx(s).map(proxy).max
      val minHigh = idx(s + 1).map(proxy).min
      assert(maxLow <= minHigh)
    }
  }

  test("ntileIndices breaks ties deterministically by index") {
    val proxy = Array.fill(10)(0.5)
    val idx = StratifiedLocal.ntileIndices(proxy, 2)
    assert(idx(0).toSeq == (0 until 5))
    assert(idx(1).toSeq == (5 until 10))
  }

  /** The (proxy, index) sort that ntile order is defined by, split into
    * ntile sizes. Proxies compare as Spark SQL orders doubles: −0.0 equals
    * 0.0, and NaN sorts last.
    */
  private def referenceNtile(proxy: Array[Double], k: Int): Seq[Seq[Int]] = {
    val order = Array.range(0, proxy.length).sortBy(i => (if (proxy(i) == 0.0) 0.0 else proxy(i), i))
    val ends = StratifiedLocal.ntileSizes(proxy.length, k).scanLeft(0)(_ + _)
    (0 until k).map(s => order.slice(ends(s), ends(s + 1)).toSeq)
  }

  test("ntileIndices equals the reference (proxy, index) sort") {
    val rng = new Random(4)
    val bits = java.lang.Double.longBitsToDouble _
    val specials = Array(
      Double.NaN, bits(0x7ff0000000000001L), bits(0xfff8000000000123L), // NaN payloads
      0.0, -0.0, Double.PositiveInfinity, Double.NegativeInfinity,
      Double.MinPositiveValue, -Double.MinPositiveValue, bits(0x000fffffffffffffL), // subnormals
      Double.MaxValue, -Double.MaxValue, 1.0, -1.0)
    val inputs = Seq(
      "random" -> Array.fill(1000)(rng.nextDouble()),
      "signed" -> Array.fill(1000)(rng.nextGaussian() * 1e3),
      "tied" -> Array.fill(1000)(rng.nextInt(7).toDouble),
      "presorted" -> Array.tabulate(1000)(i => i * 0.01),
      "reversed" -> Array.tabulate(1000)(i => -i * 0.01),
      "special" -> Array.fill(500)(specials(rng.nextInt(specials.length))),
      "empty" -> Array.empty[Double],
      "single" -> Array(0.5),
      "fewer than k" -> Array(0.3, Double.NaN, -0.0),
    )
    for ((name, proxy) <- inputs; k <- Seq(1, 2, 5, 7)) {
      val got = StratifiedLocal.ntileIndices(proxy, k).map(_.toSeq).toSeq
      assert(got == referenceNtile(proxy, k), s"$name, k=$k")
    }
  }

  test("Stratification.stratumOf inverts the strata") {
    val rng = new Random(5)
    val strat = Stratification(Array.fill(103)(rng.nextInt(20).toDouble), 4)
    for (s <- 0 until strat.k; j <- 0 until strat.size(s)) {
      assert(strat.stratumOf(strat.record(s, j)) == s)
      assert(strat.indices(s)(j) == strat.record(s, j))
    }
    // k > n leaves strata empty; n = 0 leaves every stratum empty.
    for ((n, k) <- Seq(3 -> 7, 1 -> 2, 0 -> 3)) {
      val few = Stratification(Array.fill(n)(rng.nextDouble()), k)
      assert(few.stratumOf.length == n, s"n=$n, k=$k")
      for (s <- 0 until k; j <- 0 until few.size(s)) assert(few.stratumOf(few.record(s, j)) == s)
    }
    assert(Stratification.stratumOf(Array(2, 0, 1), Array(0, 1, 1, 3, 3, 3)).toSeq == Seq(2, 2, 0))
    assert(Stratification.stratumOf(Array.empty, Array(0, 0, 0)).isEmpty)
  }

  // --------------------------------------------------------- StratifiedLocal

  test("StratifiedLocal splits into k strata of ntile sizes") {
    val r = records(103)
    val s = StratifiedLocal(r, 5)
    assert(s.k == 5)
    assert(s.sizes == StratifiedLocal.ntileSizes(103, 5).toVector)
  }

  test("StratifiedLocal.truth equals LocalRecords.truth for equal strata") {
    // With n divisible by k, Σ p_k μ_k / Σ p_k = global positive mean.
    val r = records(1000)
    val s = StratifiedLocal(r, 5)
    assert(math.abs(s.truth - r.truth) < 1e-9)
  }

  test("StratumRecords truth quantities match direct computation") {
    val sr = StratumRecords(Array(true, true, false), Array(2.0, 4.0, 9.0))
    assert(math.abs(sr.truthP - 2.0 / 3) < 1e-12)
    assert(sr.truthMu == 3.0)
    assert(math.abs(sr.truthSigma - 1.0) < 1e-12) // population stddev of {2,4}
  }

  test("StratumRecords with no positives has zero truth quantities") {
    val sr = StratumRecords(Array(false, false), Array(1.0, 2.0))
    assert(sr.truthP == 0.0 && sr.truthMu == 0.0 && sr.truthSigma == 0.0)
  }

  // ---------------------------------------------------------------- oracles

  test("CountingOracle counts every invocation and returns hidden labels") {
    val s = StratifiedLocal(records(50), 2)
    val o = new CountingOracle(s)
    assert(o.calls == 0)
    val (pos, stat) = o.query(0, 3)
    assert(pos == s.strata(0).positive(3))
    assert(stat == s.strata(0).stat(3))
    o.query(1, 0)
    o.query(1, 0) // repeat queries are still charged
    assert(o.calls == 3)
  }

  test("FlatOracle counts and returns flat-index labels") {
    val r = records(20)
    val o = new FlatOracle(r)
    val (pos, stat) = o.query(7)
    assert(pos == r.positive(7) && stat == r.stat(7))
    assert(o.calls == 1)
  }
}
