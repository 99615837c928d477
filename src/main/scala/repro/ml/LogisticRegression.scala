package repro.ml

/** L2-regularized logistic regression, fitted by Newton's method.
  *
  * Substrate for ABAE's proxy-combination procedure (§3.4): "ABAE can
  * combine proxies by sampling randomly in Stage 1 and using these
  * samples to train a logistic regression model using the proxies as
  * features and the predicate as the target." Pilot samples number in
  * the low thousands with a handful of proxy features, so a dense
  * driver-side implementation is the right tool — no distributed solver
  * is needed (the expensive resource being modeled is oracle calls, not
  * FLOPs).
  *
  * `fit` standardizes each feature to mean 0 and standard deviation 1
  * (the deviation floored at 1e-12) and minimizes, over the weights w and
  * the unpenalized bias b,
  *
  *   (1/n)·Σ_i [log(1 + e^(t_i)) − y_i·t_i] + (λ/2)·|w|²,  t_i = b + w·z_i.
  *
  * The objective is convex in d + 1 unknowns, so Newton's method (IRLS;
  * McCullagh & Nelder, Generalized Linear Models) fits it in a few passes.
  * Each iteration evaluates the gradient and the (d+1)×(d+1) Hessian, then
  * does a Cholesky solve; the step is halved while it would raise the
  * objective, unless no coordinate of it exceeds 1e-6 (such a step is taken
  * whole). Iteration starts at w = 0, b = 0 and stops once no coordinate of
  * the Newton step exceeds 1e-10, or after 50 iterations. On the combiner's
  * pilots that takes six or seven passes. The standardized features are
  * one column-major array, so an evaluation is one pass over the rows for
  * the per-row terms and the loss, then one reduction over the rows, in
  * index order, per gradient and Hessian entry.
  *
  * When every label is the same, the bias has no finite optimum. Each
  * iteration then moves it by about one toward ±∞, the weights stay near
  * 0, and `fit` returns at the iteration cap with |b| ≈ 51: `predictProb`
  * is that label's value to within 1e-20 on every input.
  */
final class LogisticRegression {

  /** The L2 penalty weight λ. */
  val lambda: Double = 1e-4

  /** Fitted model: standardization parameters plus weights and bias. */
  final case class Model(
      mean: Array[Double],
      std: Array[Double],
      weights: Array[Double],
      bias: Double,
  ) {
    /** P(label = 1 | x). */
    def predictProb(x: Array[Double]): Double = {
      var z = bias
      var j = 0
      while (j < weights.length) {
        z += weights(j) * (x(j) - mean(j)) / std(j)
        j += 1
      }
      LogisticRegression.sigmoid(z)
    }
  }

  /** Fit on dense features and 0/1 labels. */
  def fit(xs: Array[Array[Double]], ys: Array[Int]): Model = {
    require(xs.nonEmpty, "empty training set")
    require(xs.length == ys.length, "feature/label length mismatch")
    val n = xs.length
    val d = xs.head.length

    // z holds the standardized features column-major, feature j of row i
    // at z(j * n + i), then the bias's constant feature 1 as column d.
    val mean = new Array[Double](d)
    val std = new Array[Double](d)
    val z = new Array[Double](n * (d + 1))
    java.util.Arrays.fill(z, n * d, n * (d + 1), 1.0)
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
      i = 0
      while (i < n) { z(j * n + i) = (xs(i)(j) - mean(j)) / std(j); i += 1 }
      j += 1
    }

    // theta holds w(0 until d), then b.
    var theta = new Array[Double](d + 1)
    var cur = evaluate(z, ys, theta)
    var iter = 0
    var done = false
    while (!done && iter < LogisticRegression.MaxIter) {
      LogisticRegression.choleskySolve(cur.hess, cur.grad) match {
        case None => done = true // Hessian singular to working precision
        case Some(step) if step.forall(s => math.abs(s) <= LogisticRegression.Tol) =>
          theta = Array.tabulate(d + 1)(k => theta(k) - step(k))
          done = true
        case Some(step) =>
          // A step this small lies where Newton's method converges
          // quadratically, and it moves the objective by about the
          // objective's own rounding error, so a comparison would reject it
          // at random: it is taken whole.
          val small = step.forall(s => math.abs(s) <= LogisticRegression.SmallStep)
          var t = 1.0
          var halvings = 0
          var accepted = false
          while (!accepted && halvings <= LogisticRegression.MaxHalvings) {
            val cand = Array.tabulate(d + 1)(k => theta(k) - t * step(k))
            val next = evaluate(z, ys, cand)
            if (small || next.objective <= cur.objective) { theta = cand; cur = next; accepted = true }
            else { t *= 0.5; halvings += 1 }
          }
          done = !accepted
      }
      iter += 1
    }
    Model(mean, std, theta.take(d), theta(d))
  }

  /** The objective, gradient and Hessian at `theta`: one pass over the
    * rows of the column-major `z` for the per-row terms and the loss, then
    * one reduction over the rows, in index order, per gradient and per
    * Hessian entry.
    */
  private def evaluate(z: Array[Double], ys: Array[Int], theta: Array[Double]): LogisticRegression.Pass = {
    val n = ys.length
    val m = theta.length
    val d = m - 1
    val g = new Array[Double](m)
    val h = new Array[Double](m * m)
    // t_i = b + Σ_j w_j·z_ij, summed over j in order.
    val t = new Array[Double](n)
    java.util.Arrays.fill(t, theta(d))
    var j = 0
    while (j < d) {
      val w = theta(j)
      val off = j * n
      var i = 0
      while (i < n) { t(i) += w * z(off + i); i += 1 }
      j += 1
    }
    // r_i = σ(t_i) − y_i and s_i = σ(t_i)·(1 − σ(t_i)).
    val r = new Array[Double](n)
    val s = new Array[Double](n)
    var nll = 0.0
    var i = 0
    while (i < n) {
      val ti = t(i)
      // With e = e^(−|t|), every term below is free of overflow and of
      // cancellation: p = σ(t), q = 1 − p, and log(1 + e^(∓t)) the loss.
      val e = math.exp(-math.abs(ti))
      val p = if (ti >= 0) 1.0 / (1.0 + e) else e / (1.0 + e)
      val q = if (ti >= 0) e / (1.0 + e) else 1.0 / (1.0 + e)
      val pos = ys(i) != 0
      nll += math.log1p(e) + (if (pos) math.max(-ti, 0.0) else math.max(ti, 0.0))
      r(i) = if (pos) -q else p
      s(i) = p * q
      i += 1
    }
    // g_j = Σ_i r_i·z_ij and h_jk = Σ_i (s_i·z_ij)·z_ik for k ≥ j.
    j = 0
    while (j < m) {
      val oj = j * n
      var acc = 0.0
      i = 0
      while (i < n) { acc += r(i) * z(oj + i); i += 1 }
      g(j) = acc
      var k = j
      while (k < m) {
        val ok = k * n
        acc = 0.0
        i = 0
        while (i < n) { acc += s(i) * z(oj + i) * z(ok + i); i += 1 }
        h(j * m + k) = acc
        k += 1
      }
      j += 1
    }
    var penalty = 0.0
    j = 0
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
}

object LogisticRegression {
  private[ml] val MaxIter = 50
  private[ml] val MaxHalvings = 30
  private[ml] val Tol = 1e-10
  private[ml] val SmallStep = 1e-6

  /** Objective, gradient and Hessian (row-major) at one point. */
  private[ml] final case class Pass(objective: Double, grad: Array[Double], hess: Array[Double])

  def sigmoid(z: Double): Double =
    if (z >= 0) 1.0 / (1.0 + math.exp(-z))
    else { val e = math.exp(z); e / (1.0 + e) }

  /** Solves h·x = g for a symmetric m × m matrix h (row-major) by Cholesky
    * factorization; None when h is not positive definite to working
    * precision.
    */
  private[ml] def choleskySolve(h: Array[Double], g: Array[Double]): Option[Array[Double]] = {
    val m = g.length
    val l = new Array[Double](m * m)
    var j = 0
    var ok = true
    while (ok && j < m) {
      var s = h(j * m + j)
      var k = 0
      while (k < j) { s -= l(j * m + k) * l(j * m + k); k += 1 }
      if (!(s > 0)) ok = false
      else {
        val ljj = math.sqrt(s)
        l(j * m + j) = ljj
        var i = j + 1
        while (i < m) {
          var t = h(i * m + j)
          k = 0
          while (k < j) { t -= l(i * m + k) * l(j * m + k); k += 1 }
          l(i * m + j) = t / ljj
          i += 1
        }
      }
      j += 1
    }
    if (!ok) None
    else {
      val x = g.clone()
      var i = 0
      while (i < m) { // L·y = g
        var k = 0
        while (k < i) { x(i) -= l(i * m + k) * x(k); k += 1 }
        x(i) /= l(i * m + i)
        i += 1
      }
      i = m - 1
      while (i >= 0) { // Lᵀ·x = y
        var k = i + 1
        while (k < m) { x(i) -= l(k * m + i) * x(k); k += 1 }
        x(i) /= l(i * m + i)
        i -= 1
      }
      Some(x)
    }
  }
}
