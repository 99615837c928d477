package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{CountingOracle, LocalRecords, StratifiedLocal}
import repro.sampling.Rng
import java.util.concurrent.{Callable, ForkJoinPool}
import scala.util.Random

class BootstrapSpec extends AnyFunSuite {

  private def draws(pairs: (Boolean, Double)*): StratumDraws =
    StratumDraws(pairs.map(_._1).toArray, pairs.map(_._2).toArray)

  // ------------------------------------------------------------- percentile

  test("percentile interpolates linearly") {
    val xs = Array(0.0, 1.0, 2.0, 3.0, 4.0)
    assert(Bootstrap.percentile(xs, 0.0) == 0.0)
    assert(Bootstrap.percentile(xs, 1.0) == 4.0)
    assert(Bootstrap.percentile(xs, 0.5) == 2.0)
    assert(math.abs(Bootstrap.percentile(xs, 0.625) - 2.5) < 1e-12)
  }

  test("percentile of a single element is that element") {
    assert(Bootstrap.percentile(Array(7.0), 0.25) == 7.0)
  }

  // ----------------------------------------------------------------- ci

  test("ci brackets the point estimate of a well-behaved sample") {
    val rng = new Random(0)
    val d = draws(Seq.fill(500)((rng.nextDouble() < 0.5, rng.nextGaussian() + 10)): _*)
    val est = Estimators.combine(Seq(Estimators.fromDraws(d)))
    val ci = Bootstrap.ci(Seq(d), beta = 500, alpha = 0.05, new Random(1))
    assert(ci.contains(est), s"ci=$ci est=$est")
    assert(ci.width > 0)
  }

  test("ci width shrinks with more samples") {
    def widthFor(n: Int): Double = {
      val rng = new Random(2)
      val d = draws(Seq.fill(n)((rng.nextDouble() < 0.5, rng.nextGaussian() + 10)): _*)
      Bootstrap.ci(Seq(d), 400, 0.05, new Random(3)).width
    }
    assert(widthFor(4000) < widthFor(250))
  }

  test("ci width grows as alpha decreases (wider for higher confidence)") {
    val rng = new Random(4)
    val d = draws(Seq.fill(300)((rng.nextDouble() < 0.4, rng.nextGaussian() * 2)): _*)
    val w95 = Bootstrap.ci(Seq(d), 800, 0.05, new Random(5)).width
    val w50 = Bootstrap.ci(Seq(d), 800, 0.5, new Random(5)).width
    assert(w95 > w50)
  }

  test("ci of an all-constant statistic is degenerate at that constant") {
    val d = draws(Seq.fill(50)((true, 3.0)): _*)
    val ci = Bootstrap.ci(Seq(d), 200, 0.05, new Random(6))
    assert(ci.lo == 3.0 && ci.hi == 3.0)
  }

  test("ci handles strata with zero positives") {
    val d1 = draws(Seq.fill(50)((false, 0.0)): _*)
    val d2 = draws(Seq.fill(50)((true, 5.0)): _*)
    val ci = Bootstrap.ci(Seq(d1, d2), 200, 0.05, new Random(7))
    assert(!ci.lo.isNaN && !ci.hi.isNaN)
    assert(ci.contains(5.0))
  }

  test("ci of empty draws everywhere is the zero point") {
    val ci = Bootstrap.ci(Seq(StratumDraws.empty), 100, 0.05, new Random(8))
    assert(ci.lo == 0.0 && ci.hi == 0.0)
  }

  test("ci is deterministic given the rng seed") {
    val rng = new Random(9)
    val d = draws(Seq.fill(200)((rng.nextDouble() < 0.3, rng.nextGaussian())): _*)
    val a = Bootstrap.ci(Seq(d), 300, 0.05, new Random(10))
    val b = Bootstrap.ci(Seq(d), 300, 0.05, new Random(10))
    assert(a == b)
  }

  test("ci validates parameters") {
    val d = draws((true, 1.0))
    intercept[IllegalArgumentException] { Bootstrap.ci(Seq(d), 1, 0.05, new Random(0)) }
    intercept[IllegalArgumentException] { Bootstrap.ci(Seq(d), 100, 0.0, new Random(0)) }
    intercept[IllegalArgumentException] { Bootstrap.ci(Seq(d), 100, 1.0, new Random(0)) }
  }

  test("ci rejects a non-finite statistic on a positive draw, naming the stratum") {
    val ok = draws((true, 1.0), (false, 0.0))
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val e = intercept[IllegalArgumentException] {
        Bootstrap.ci(Seq(ok, draws((true, 2.0), (true, bad))), 100, 0.05, new Random(0))
      }
      assert(e.getMessage.contains("stratum 1"), e.getMessage)
    }
  }

  test("ci allows a NaN statistic on a negative draw") {
    val d = draws(Seq.tabulate(30)(i => if (i % 3 == 0) (false, Double.NaN) else (true, 2.0 * (i % 3))): _*)
    val ci = Bootstrap.ci(Seq(d), 200, 0.05, new Random(11))
    assert(ci.lo >= 2.0 && ci.hi <= 4.0, s"ci=$ci")
  }

  /** ABAE-like draws: five strata with rising positive rates, one of them
    * all negative and one empty.
    */
  private def abaeLikeDraws(seed: Long): Seq[StratumDraws] = {
    val rng = new Random(seed)
    Seq((400, 0.0), (0, 0.5), (500, 0.05), (600, 0.3), (800, 0.7)).map { case (n, p) =>
      draws(Seq.fill(n)((rng.nextDouble() < p, 8.0 + 2.0 * rng.nextGaussian())): _*)
    }
  }

  test("ci is bit-identical on one thread, four threads and the calling thread") {
    val d = abaeLikeDraws(12)
    def inPool(threads: Int): Bootstrap.Interval = {
      val pool = new ForkJoinPool(threads)
      try pool.submit(new Callable[Bootstrap.Interval] {
        def call(): Bootstrap.Interval = Bootstrap.ci(d, 400, 0.05, new Random(13))
      }).get()
      finally pool.shutdown()
    }
    val here = Bootstrap.ci(d, 400, 0.05, new Random(13))
    val one = inPool(1)
    val four = inPool(4)
    assert(one == here && four == here, s"one=$one four=$four here=$here")
  }

  /** The sequential kernel `ci` had before it drew each resample from its
    * own stream: every index of every resample from the one shared `rng`.
    * Kept as the reference the parallel kernel's distribution must match.
    */
  private def sequentialCiReference(draws: Seq[StratumDraws], beta: Int, alpha: Double, rng: Random): Bootstrap.Interval = {
    val k = draws.length
    val ns = draws.map(_.n).toArray
    val posVals = draws.map(_.positiveStats).toArray
    val estimates = new Array[Double](beta)
    var b = 0
    while (b < beta) {
      var pAll = 0.0
      var weighted = 0.0
      var s = 0
      while (s < k) {
        val n = ns(s)
        if (n > 0) {
          val pv = posVals(s)
          var cnt = 0
          var sum = 0.0
          var i = 0
          while (i < n) {
            val idx = rng.nextInt(n)
            if (idx < pv.length) { cnt += 1; sum += pv(idx) }
            i += 1
          }
          val pStar = cnt.toDouble / n
          val muStar = if (cnt > 0) sum / cnt else 0.0
          pAll += pStar
          weighted += pStar * muStar
        }
        s += 1
      }
      estimates(b) = if (pAll == 0.0) 0.0 else weighted / pAll
      b += 1
    }
    java.util.Arrays.sort(estimates)
    Bootstrap.Interval(Bootstrap.percentile(estimates, alpha / 2), Bootstrap.percentile(estimates, 1 - alpha / 2))
  }

  test("ci's endpoints have the sequential reference kernel's mean and spread") {
    val d = abaeLikeDraws(14)
    val seeds = 1 to 300
    val ref = seeds.map(s => sequentialCiReference(d, 300, 0.05, Rng.stream(s.toLong, 3)))
    val cur = seeds.map(s => Bootstrap.ci(d, 300, 0.05, Rng.stream(s.toLong, 3)))
    def mean(xs: Seq[Double]) = xs.sum / xs.length
    def sd(xs: Seq[Double]) = { val m = mean(xs); math.sqrt(xs.map(x => (x - m) * (x - m)).sum / (xs.length - 1)) }
    val n = seeds.length.toDouble
    for ((name, end) <- Seq[(String, Bootstrap.Interval => Double)](("lo", _.lo), ("hi", _.hi))) {
      val (a, b) = (ref.map(end), cur.map(end))
      val (sa, sb) = (sd(a), sd(b))
      val meanSe = math.sqrt((sa * sa + sb * sb) / n)
      assert(math.abs(mean(a) - mean(b)) < 4 * meanSe, s"$name means ${mean(a)} vs ${mean(b)}, se $meanSe")
      // The standard error of a sample standard deviation is about sd/√(2(n−1)).
      val sdSe = math.sqrt((sa * sa + sb * sb) / (2 * (n - 1)))
      assert(math.abs(sa - sb) < 4 * sdSe, s"$name sds $sa vs $sb, se $sdSe")
    }
  }

  // ------------------------------------------- positive-count distribution

  /** Binomial(n, pos/n) pmf from log-factorials, independently of the kernel's recurrence. */
  private def binomialPmf(n: Int, pos: Int): Array[Double] = {
    val logFact = (1 to n).scanLeft(0.0)(_ + math.log(_)).toArray
    val (lp, lq) = (math.log(pos.toDouble / n), math.log((n - pos).toDouble / n))
    Array.tabulate(n + 1)(c => math.exp(logFact(n) - logFact(c) - logFact(n - c) + c * lp + (n - c) * lq))
  }

  test("PositiveCount's table is the exact Binomial pmf for n ≤ 12 and every positive count") {
    for (n <- 1 to 12; pos <- 0 to n) {
      val pc = new Bootstrap.PositiveCount(n, pos)
      if (pos == 0 || pos == n) {
        assert(pc.cdf.isEmpty, s"n=$n pos=$pos has a table")
        val r = new java.util.SplittableRandom(n * 13L + pos)
        assert(Seq.fill(20)(pc.draw(r)).forall(_ == pos), s"n=$n pos=$pos")
      } else {
        val total = pc.cdf(n)
        val exact = binomialPmf(n, pos)
        for (c <- 0 to n) {
          val pmf = (pc.cdf(c) - (if (c == 0) 0.0 else pc.cdf(c - 1))) / total
          assert(math.abs(pmf - exact(c)) < 1e-12, s"n=$n pos=$pos c=$c: $pmf vs ${exact(c)}")
        }
      }
    }
  }

  test("PositiveCount's table at n = 10,000 is finite and non-decreasing, and its search stays in [0, n]") {
    val n = 10000
    for (pos <- Seq(1, 5000, 9999)) {
      val pc = new Bootstrap.PositiveCount(n, pos)
      val cdf = pc.cdf
      assert(cdf.length == n + 1 && cdf.forall(java.lang.Double.isFinite), s"pos=$pos")
      assert((1 to n).forall(c => cdf(c) >= cdf(c - 1)), s"pos=$pos: table decreases")
      val total = cdf(n)
      assert(total > 0, s"pos=$pos")
      val us = (0 until 100000).map(i => total * i / 100000) ++ Seq(0.0, math.nextDown(total))
      for (u <- us) {
        val c = pc.search(u)
        assert(c >= 0 && c <= n, s"pos=$pos u=$u: count $c")
        // The least count whose cumulative weight exceeds u.
        assert(cdf(c) > u && (c == 0 || cdf(c - 1) <= u), s"pos=$pos u=$u: count $c")
      }
    }
  }

  test("a resample's positive count follows Binomial(n, positives/n) (chi-squared, fixed seeds)") {
    val draws = 40000
    for (((n, pos), seed) <- Seq((20, 7), (200, 13), (1000, 500), (5000, 4990)).zipWithIndex) {
      val pc = new Bootstrap.PositiveCount(n, pos)
      val r = new java.util.SplittableRandom(7000L + seed)
      val observed = new Array[Long](n + 1)
      for (_ <- 1 to draws) observed(pc.draw(r)) += 1
      // Pool counts into cells of expected size ≥ 20, tails into their neighbours.
      val expected = binomialPmf(n, pos).map(_ * draws)
      val cells = scala.collection.mutable.ArrayBuffer.empty[(Double, Long)]
      var e = 0.0
      var o = 0L
      for (c <- 0 to n) {
        e += expected(c); o += observed(c)
        if (e >= 20) { cells += ((e, o)); e = 0.0; o = 0L }
      }
      cells(cells.length - 1) = (cells.last._1 + e, cells.last._2 + o)
      val chi2 = cells.map { case (ex, ob) => (ob - ex) * (ob - ex) / ex }.sum
      // Upper 0.1% point of chi-squared (Wilson–Hilferty).
      val df = cells.length - 1
      val h = 2.0 / (9 * df)
      val crit = df * math.pow(1 - h + 3.09 * math.sqrt(h), 3)
      assert(df >= 3 && chi2 < crit, s"n=$n pos=$pos: chi2=$chi2 df=$df crit=$crit")
    }
  }

  // ----------------------------------------------------- end-to-end coverage

  test("nominal coverage: ~95% CIs contain the truth on repeated ABAE runs") {
    val rng = new Random(20)
    val n = 50000
    val proxy = Array.fill(n)(rng.nextDouble())
    val positive = proxy.map(p => rng.nextDouble() < p)
    val stat = proxy.map(p => 4.0 + 4.0 * p + rng.nextGaussian())
    val strat = StratifiedLocal(LocalRecords(proxy, positive, stat), 5)
    val trials = 120
    var covered = 0
    for (s <- 1 to trials) {
      val res = Abae.run(strat, new CountingOracle(strat), 1200, AbaeParams(), s)
      val ci = Bootstrap.ci(res.draws, beta = 300, alpha = 0.05, Rng.stream(1000L + s, 1))
      if (ci.contains(strat.truth)) covered += 1
    }
    val coverage = covered.toDouble / trials
    // Binomial(120, .95) 3-sigma band ≈ ±0.06.
    assert(coverage > 0.86, s"coverage=$coverage")
  }
}
