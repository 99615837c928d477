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
