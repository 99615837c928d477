package repro.metrics

import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {

  test("rmse of exact estimates is 0") {
    assert(Metrics.rmse(Seq(2.0, 2.0, 2.0), 2.0) == 0.0)
  }

  test("rmse matches hand computation") {
    // errors 1 and -1 -> rmse 1
    assert(math.abs(Metrics.rmse(Seq(3.0, 1.0), 2.0) - 1.0) < 1e-12)
  }

  test("rmse rejects empty input") {
    intercept[IllegalArgumentException] { Metrics.rmse(Nil, 1.0) }
  }

  test("stddev of identical values is 0 and of a simple pair is correct") {
    assert(Metrics.stddev(Seq(5.0, 5.0)) == 0.0)
    assert(math.abs(Metrics.stddev(Seq(1.0, 3.0)) - math.sqrt(2.0)) < 1e-12)
    assert(Metrics.stddev(Seq(1.0)) == 0.0)
  }

  test("mean is the arithmetic mean") {
    assert(Metrics.mean(Seq(1.0, 2.0, 6.0)) == 3.0)
  }

  test("qError is symmetric in over/under estimation") {
    assert(Metrics.qError(2.0, 1.0) == Metrics.qError(0.5, 1.0))
    assert(Metrics.qError(1.0, 1.0) == 1.0)
  }

  test("qError caps on non-positive inputs") {
    assert(Metrics.qError(0.0, 1.0) == 1e6)
    assert(Metrics.qError(-1.0, 1.0) == 1e6)
    assert(Metrics.qError(1.0, 2.0, cap = 10.0) <= 10.0)
  }

  test("normalizedQError is 100·(q−1)") {
    // estimates 1.1 vs truth 1.0: q = 1.1, normalized = 10
    assert(math.abs(Metrics.normalizedQError(Seq(1.1), 1.0) - 10.0) < 1e-9)
    assert(Metrics.normalizedQError(Seq(1.0, 1.0), 1.0) == 0.0)
  }
}
