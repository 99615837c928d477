package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class LogisticRegressionSpec extends AnyFunSuite {

  /** The former fit, fixed-step full-batch gradient descent on the same
    * objective, kept as the reference `fit` must match or beat.
    */
  private def gradientDescentReference(
      lr: LogisticRegression,
      xs: Array[Array[Double]],
      ys: Array[Int],
      maxIter: Int,
      tol: Double,
  ): lr.Model = {
    val learningRate = 0.5
    val n = xs.length
    val d = xs.head.length
    val mean = Array.tabulate(d)(j => xs.map(_(j)).sum / n)
    val std = Array.tabulate(d)(j =>
      math.max(math.sqrt(xs.map(x => (x(j) - mean(j)) * (x(j) - mean(j))).sum / n), 1e-12))
    val z = Array.tabulate(n, d)((i, jj) => (xs(i)(jj) - mean(jj)) / std(jj))

    val w = new Array[Double](d)
    var b = 0.0
    var iter = 0
    var moved = Double.MaxValue
    while (iter < maxIter && moved > tol) {
      val gw = new Array[Double](d)
      var gb = 0.0
      var i = 0
      while (i < n) {
        var dot = b
        var k = 0
        while (k < d) { dot += w(k) * z(i)(k); k += 1 }
        val err = LogisticRegression.sigmoid(dot) - ys(i)
        k = 0
        while (k < d) { gw(k) += err * z(i)(k); k += 1 }
        gb += err
        i += 1
      }
      moved = 0.0
      var k = 0
      while (k < d) {
        val step = learningRate * (gw(k) / n + lr.lambda * w(k))
        w(k) -= step
        moved += math.abs(step)
        k += 1
      }
      val stepB = learningRate * gb / n
      b -= stepB
      moved += math.abs(stepB)
      iter += 1
    }
    lr.Model(mean, std, w, b)
  }

  /** The row-major fit that the column-major `fit` replaced: the same
    * Newton iteration, with the gradient and Hessian accumulated row by
    * row. Kept as the reference `fit` must equal bit for bit.
    */
  private def rowMajorReference(lr: LogisticRegression, xs: Array[Array[Double]], ys: Array[Int]): lr.Model = {
    import LogisticRegression.{choleskySolve, MaxHalvings, MaxIter, SmallStep, Tol}
    val n = xs.length
    val d = xs.head.length
    val mean = new Array[Double](d)
    val std = new Array[Double](d)
    var j = 0
    while (j < d) {
      var s = 0.0
      var i = 0
      while (i < n) { s += xs(i)(j); i += 1 }
      mean(j) = s / n
      var v = 0.0
      i = 0
      while (i < n) { val c = xs(i)(j) - mean(j); v += c * c; i += 1 }
      std(j) = math.max(math.sqrt(v / n), 1e-12)
      j += 1
    }
    val z = Array.tabulate(n, d)((i, jj) => (xs(i)(jj) - mean(jj)) / std(jj))

    var theta = new Array[Double](d + 1)
    var cur = rowMajorEvaluate(lr.lambda, z, ys, theta)
    var iter = 0
    var done = false
    while (!done && iter < MaxIter) {
      choleskySolve(cur.hess, cur.grad) match {
        case None => done = true
        case Some(step) if step.forall(s => math.abs(s) <= Tol) =>
          theta = Array.tabulate(d + 1)(k => theta(k) - step(k))
          done = true
        case Some(step) =>
          val small = step.forall(s => math.abs(s) <= SmallStep)
          var t = 1.0
          var halvings = 0
          var accepted = false
          while (!accepted && halvings <= MaxHalvings) {
            val cand = Array.tabulate(d + 1)(k => theta(k) - t * step(k))
            val next = rowMajorEvaluate(lr.lambda, z, ys, cand)
            if (small || next.objective <= cur.objective) { theta = cand; cur = next; accepted = true }
            else { t *= 0.5; halvings += 1 }
          }
          done = !accepted
      }
      iter += 1
    }
    lr.Model(mean, std, theta.take(d), theta(d))
  }

  private def rowMajorEvaluate(
      lambda: Double,
      z: Array[Array[Double]],
      ys: Array[Int],
      theta: Array[Double],
  ): LogisticRegression.Pass = {
    val n = ys.length
    val m = theta.length
    val d = m - 1
    val g = new Array[Double](m)
    val h = new Array[Double](m * m)
    val x = new Array[Double](m)
    x(d) = 1.0
    var nll = 0.0
    var i = 0
    while (i < n) {
      val zi = z(i)
      var t = theta(d)
      var j = 0
      while (j < d) { x(j) = zi(j); t += theta(j) * x(j); j += 1 }
      val e = math.exp(-math.abs(t))
      val p = if (t >= 0) 1.0 / (1.0 + e) else e / (1.0 + e)
      val q = if (t >= 0) e / (1.0 + e) else 1.0 / (1.0 + e)
      val pos = ys(i) != 0
      nll += math.log1p(e) + (if (pos) math.max(-t, 0.0) else math.max(t, 0.0))
      val r = if (pos) -q else p
      val s = p * q
      j = 0
      while (j < m) {
        g(j) += r * x(j)
        val sx = s * x(j)
        var k = j
        while (k < m) { h(j * m + k) += sx * x(k); k += 1 }
        j += 1
      }
      i += 1
    }
    var penalty = 0.0
    var j = 0
    while (j < m) {
      g(j) /= n
      var k = j
      while (k < m) { h(j * m + k) /= n; h(k * m + j) = h(j * m + k); k += 1 }
      if (j < d) {
        g(j) += lambda * theta(j)
        h(j * m + j) += lambda
        penalty += theta(j) * theta(j)
      }
      j += 1
    }
    LogisticRegression.Pass(nll / n + 0.5 * lambda * penalty, g, h)
  }

  /** The objective and its gradient (weights, then bias) at a fitted model. */
  private def objectiveAndGradient(
      lr: LogisticRegression,
      m: LogisticRegression#Model,
      xs: Array[Array[Double]],
      ys: Array[Int],
  ): (Double, Array[Double]) = {
    val d = m.weights.length
    val n = xs.length
    val g = new Array[Double](d + 1)
    var nll = 0.0
    for (i <- 0 until n) {
      val z = Array.tabulate(d)(j => (xs(i)(j) - m.mean(j)) / m.std(j))
      val t = m.bias + (0 until d).map(j => m.weights(j) * z(j)).sum
      nll += math.log1p(math.exp(-math.abs(t))) + math.max(if (ys(i) == 1) -t else t, 0.0)
      val r = LogisticRegression.sigmoid(t) - ys(i)
      for (j <- 0 until d) g(j) += r * z(j) / n
      g(d) += r / n
    }
    for (j <- 0 until d) g(j) += lr.lambda * m.weights(j)
    (nll / n + 0.5 * lr.lambda * m.weights.map(w => w * w).sum, g)
  }

  /** Pilot-like instances: 1–4 features, each a shared score plus noise
    * (strongly correlated, as the keyword proxies are) or pure noise, and
    * labels drawn from a logistic model of the score.
    */
  private def instance(seed: Int): (Array[Array[Double]], Array[Int]) = {
    val rng = new Random(seed)
    val d = 1 + seed % 4
    val n = 300 + rng.nextInt(1200)
    val noise = Array.fill(d)(Seq(0.05, 0.15, 0.35, 0.6, -1.0)(rng.nextInt(5)))
    val slope = 2.0 + 6.0 * rng.nextDouble()
    val shift = rng.nextDouble()
    val score = Array.fill(n)(rng.nextDouble())
    val xs = score.map(s => noise.map(tau => if (tau < 0) rng.nextDouble() else s + rng.nextGaussian() * tau))
    val ys = score.map(s => if (rng.nextDouble() < LogisticRegression.sigmoid(slope * (s - shift))) 1 else 0)
    (xs, ys)
  }

  test("fit reaches the optimum that gradient descent approaches") {
    val lr = new LogisticRegression()
    (0 until 20).foreach { seed =>
      val (xs, ys) = instance(seed)
      val m = lr.fit(xs, ys)
      val ref = gradientDescentReference(lr, xs, ys, maxIter = 100000, tol = 1e-13)
      val (obj, grad) = objectiveAndGradient(lr, m, xs, ys)
      val (refObj, _) = objectiveAndGradient(lr, ref, xs, ys)
      assert(obj <= refObj + 1e-12, s"seed $seed: objective $obj vs reference $refObj")
      val gradNorm = math.sqrt(grad.map(g => g * g).sum)
      assert(gradNorm <= 1e-8, s"seed $seed: gradient norm $gradNorm")
      val gap = xs.map(x => math.abs(m.predictProb(x) - ref.predictProb(x))).max
      assert(gap <= 1e-6, s"seed $seed: predicted probabilities differ by $gap")
    }
  }

  test("fit equals the row-major reference bit for bit") {
    val lr = new LogisticRegression()
    def bits(a: Array[Double]) = a.toSeq.map(java.lang.Double.doubleToLongBits)
    def check(name: String, xs: Array[Array[Double]], ys: Array[Int]): Unit = {
      val m = lr.fit(xs, ys)
      val ref = rowMajorReference(lr, xs, ys)
      assert(bits(m.mean) == bits(ref.mean) && bits(m.std) == bits(ref.std), s"$name: standardization")
      assert(bits(m.weights) == bits(ref.weights) && bits(Array(m.bias)) == bits(Array(ref.bias)),
        s"$name: ${m.weights.toSeq} ${m.bias} vs ${ref.weights.toSeq} ${ref.bias}")
    }
    val rng = new Random(7)
    // Features share a score plus noise of mixed scale; labels follow the score.
    def pilot(n: Int, d: Int): (Array[Array[Double]], Array[Int]) = {
      val score = Array.fill(n)(rng.nextGaussian())
      val scale = Array.fill(d)(0.1 + 3.0 * rng.nextDouble())
      val xs = score.map(s => scale.map(c => c * (s + rng.nextGaussian())))
      (xs, score.map(s => if (rng.nextDouble() < LogisticRegression.sigmoid(2 * s)) 1 else 0))
    }
    for (n <- Seq(1, 2, 3, 17, 400, 6000) ++ Seq.fill(6)(1 + rng.nextInt(6000)); d <- 1 to 6) {
      val (xs, ys) = pilot(n, d)
      check(s"n=$n, d=$d", xs, ys)
      if (n >= 2) {
        check(s"n=$n, d=$d, one class 0", xs, Array.fill(n)(0))
        check(s"n=$n, d=$d, one class 1", xs, Array.fill(n)(1))
        // Separable on the first feature.
        check(s"n=$n, d=$d, separable", xs, xs.map(x => if (x(0) > 0) 1 else 0))
        // A constant column in front of the others.
        check(s"n=$n, d=$d, constant column", xs.map(x => 2.5 +: x.tail), ys)
      }
    }
  }

  test("separates linearly separable 1-d data") {
    val xs = Array.tabulate(100)(i => Array(if (i < 50) -1.0 else 1.0))
    val ys = Array.tabulate(100)(i => if (i < 50) 0 else 1)
    val m = new LogisticRegression().fit(xs, ys)
    assert(m.predictProb(Array(-1.0)) < 0.15)
    assert(m.predictProb(Array(1.0)) > 0.85)
  }

  test("recovers monotone dependence on the informative feature") {
    val rng = new Random(0)
    val xs = Array.fill(2000) { Array(rng.nextGaussian(), rng.nextGaussian()) }
    val ys = xs.map(x => if (rng.nextDouble() < LogisticRegression.sigmoid(2 * x(0))) 1 else 0)
    val m = new LogisticRegression().fit(xs, ys)
    assert(m.predictProb(Array(2.0, 0.0)) > m.predictProb(Array(-2.0, 0.0)) + 0.5)
    // The uninformative feature moves the prediction far less.
    val d2 = math.abs(m.predictProb(Array(0.0, 2.0)) - m.predictProb(Array(0.0, -2.0)))
    assert(d2 < 0.2)
  }

  test("is roughly calibrated on a known generative model") {
    val rng = new Random(1)
    val xs = Array.fill(5000)(Array(rng.nextGaussian()))
    val ys = xs.map(x => if (rng.nextDouble() < LogisticRegression.sigmoid(x(0))) 1 else 0)
    val m = new LogisticRegression().fit(xs, ys)
    // P(y=1 | x=0) should be near 0.5, x=1 near sigmoid(1)=0.73.
    assert(math.abs(m.predictProb(Array(0.0)) - 0.5) < 0.08)
    assert(math.abs(m.predictProb(Array(1.0)) - LogisticRegression.sigmoid(1.0)) < 0.1)
  }

  test("handles constant labels without diverging") {
    val xs = Array.fill(50)(Array(1.0, 2.0))
    val m = new LogisticRegression().fit(xs, Array.fill(50)(1))
    val p = m.predictProb(Array(1.0, 2.0))
    assert(!p.isNaN && p > 0.5)
  }

  test("constant labels give that label's probability to within 1e-20") {
    val rng = new Random(4)
    val xs = Array.fill(50)(Array(rng.nextDouble(), rng.nextGaussian()))
    val none = new LogisticRegression().fit(xs, Array.fill(50)(0))
    val all = new LogisticRegression().fit(xs, Array.fill(50)(1))
    assert(xs.forall(x => none.predictProb(x) < 1e-20 && 1 - all.predictProb(x) < 1e-20))
  }

  test("handles a constant feature (zero variance) via the std floor") {
    val rng = new Random(2)
    val xs = Array.fill(200)(Array(3.0, rng.nextGaussian()))
    val ys = xs.map(x => if (x(1) > 0) 1 else 0)
    val m = new LogisticRegression().fit(xs, ys)
    assert(m.predictProb(Array(3.0, 2.0)) > 0.8)
    assert(m.predictProb(Array(3.0, -2.0)) < 0.2)
  }

  test("weights the more predictive of two correlated proxies") {
    val rng = new Random(3)
    val truth = Array.fill(3000)(rng.nextDouble())
    val good = truth.map(t => t + rng.nextGaussian() * 0.05)
    val junk = Array.fill(3000)(rng.nextDouble())
    val xs = Array.tabulate(3000)(i => Array(good(i), junk(i)))
    val ys = truth.map(t => if (rng.nextDouble() < t) 1 else 0)
    val m = new LogisticRegression().fit(xs, ys)
    assert(math.abs(m.weights(0)) > 3 * math.abs(m.weights(1)))
  }

  test("rejects empty and misaligned inputs") {
    val lr = new LogisticRegression()
    intercept[IllegalArgumentException] { lr.fit(Array.empty, Array.empty) }
    intercept[IllegalArgumentException] { lr.fit(Array(Array(1.0)), Array(1, 0)) }
  }

  test("sigmoid is stable at extreme arguments") {
    assert(LogisticRegression.sigmoid(1000.0) == 1.0)
    assert(LogisticRegression.sigmoid(-1000.0) == 0.0)
    assert(math.abs(LogisticRegression.sigmoid(0.0) - 0.5) < 1e-12)
  }
}
