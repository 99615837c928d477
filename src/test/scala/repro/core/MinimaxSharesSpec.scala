package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The exact minimax Λ of Eqs. 10–11 ([[GroupBy.minimaxShares]]). */
class MinimaxSharesSpec extends AnyFunSuite {

  import GroupBy.{ErrorCurve, minimaxShares}

  /** Eq. 11's curve: `base / (λ · n2)`. */
  private def eq11(base: Double, n2: Double = 1000.0): ErrorCurve =
    ErrorCurve(Array(base), 0.0, Array(n2))

  private def worst(curves: IndexedSeq[ErrorCurve], lambda: Array[Double]): Double =
    curves.indices.map(j => curves(j)(lambda(j))).max

  private def assertOnSimplex(lambda: Array[Double]): Unit = {
    assert(lambda.forall(l => l >= 0 && l <= 1), lambda.toSeq)
    assert(math.abs(lambda.sum - 1.0) < 1e-12, lambda.toSeq)
  }

  test("Eq. 11 shares match the closed form base_g / Σ base on random log-normal bases") {
    val rng = new Random(8)
    for (g <- Seq(2, 3, 4, 6); _ <- 1 to 2000) {
      val base = Array.fill(g)(math.exp(1.5 * rng.nextGaussian()))
      val lambda = minimaxShares(base.toIndexedSeq.map(eq11(_)))
      val total = base.sum
      base.indices.foreach { j =>
        assert(math.abs(lambda(j) - base(j) / total) <= 1e-9, s"bases ${base.toSeq}: ${lambda.toSeq}")
      }
    }
  }

  test("single-oracle shares are no worse than a brute-force grid, including non-monotone curves") {
    // The single-oracle shape: a = (N1 + N2)/K, b_k = N2·(T̂_k − 1/K), so
    // b_k < 0 wherever the own allocation is below flat.
    val rng = new Random(9)
    def curve(): ErrorCurve = {
      val k = 1 + rng.nextInt(5)
      val n1 = 100 + rng.nextInt(900)
      val n2 = 100 + rng.nextInt(2000)
      val raw = Array.fill(k)(rng.nextDouble())
      val t = raw.map(_ / raw.sum)
      ErrorCurve(Array.fill(k)(math.exp(2.0 * rng.nextGaussian())), (n1 + n2).toDouble / k,
        t.map(tk => n2 * (tk - 1.0 / k)))
    }
    var interior = 0
    var negative = 0
    for (g <- Seq(2, 3); _ <- 1 to 150) {
      val curves = Vector.fill(g)(curve())
      interior += curves.count(v => v.slope(0.0) < 0 && v.slope(1.0) > 0)
      negative += curves.count(_.b.exists(_ < 0))
      val lambda = minimaxShares(curves)
      assertOnSimplex(lambda)
      val steps = if (g == 2) 4000 else 300
      val grid =
        if (g == 2) (0 to steps).map(i => Array(i.toDouble / steps, 1 - i.toDouble / steps))
        else for (i <- 0 to steps; j <- 0 to steps - i)
          yield Array(i.toDouble / steps, j.toDouble / steps, (steps - i - j).toDouble / steps)
      val best = grid.map(worst(curves, _)).min
      assert(worst(curves, lambda) <= best * (1 + 1e-12), s"solver ${worst(curves, lambda)} vs grid $best")
    }
    assert(interior > 20, s"only $interior curves with an interior minimum")
    assert(negative > 100, s"only $negative curves with a negative b_k")
  }

  test("a group whose own minimum at a vertex sets the level gets exactly 1.0") {
    // Group 0 is decreasing with its minimum 5 at λ = 1; the others (group 2
    // with an interior minimum) are below 5 even at λ = 0, so they get nothing.
    val curves = Vector(
      ErrorCurve(Array(10.0), 1.0, Array(1.0)),
      ErrorCurve(Array(1.0), 1.0, Array(1.0)),
      ErrorCurve(Array(1.0, 1.0), 1.0, Array(-0.5, 1.0)))
    val lambda = minimaxShares(curves)
    assert(lambda.toSeq == Seq(1.0, 0.0, 0.0))
    assert(lambda.sum == 1.0)
  }

  test("a group with infinite error gives every group exactly 1/G") {
    for (g <- 2 to 4) {
      val curves = Vector.tabulate(g)(j => eq11(if (j == 1) Double.PositiveInfinity else j + 1.0))
      assert(minimaxShares(curves).toSeq == Seq.fill(g)(1.0 / g))
    }
    val noPositives = ErrorCurve(Array(Double.PositiveInfinity), 1.0, Array(0.0))
    assert(minimaxShares(Vector(eq11(1.0), noPositives)).toSeq == Seq(0.5, 0.5))
    assert(minimaxShares(Vector(eq11(1.0, n2 = 0.0), eq11(2.0, n2 = 0.0))).toSeq == Seq(0.5, 0.5))
  }

  test("one group gets the whole Stage-2 budget") {
    assert(minimaxShares(Vector(eq11(3.0))).toSeq == Seq(1.0))
    // Its own minimum is at λ = 0, yet the only feasible share is 1.
    val rising = ErrorCurve(Array(1.0, 1.0), 1.0, Array(0.5, -0.9))
    assert(minimaxShares(Vector(rising)).toSeq == Seq(1.0))
  }
}
