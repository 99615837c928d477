package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import AllocationPropertySpec._

/** Properties over random pilots (K strata, 0–50 draws each) whose
  * statistic is constant, varies at one of several scales, or is never seen
  * because no draw is positive: the Stage-2 shares T̂ that
  * `Estimators.allocationFromPilot` derives are finite, non-negative and sum
  * to 1, and GroupBy's Eq. 10–11 variance is Prop. 2's `allocationMse`.
  */
class AllocationPropertySpec extends AnyFunSuite {

  private val pilots: Gen[Pilot] = for {
    k <- Gen.choose(1, 8)
    sizes <- Gen.listOfN(k, Gen.choose(0, 50))
    rates <- Gen.listOfN(k, Gen.oneOf(Gen.const(0.0), Gen.const(1.0), Gen.choose(0.0, 1.0)))
    stat <- Gen.oneOf(Gen.const(Constant), Gen.const(NoPositives),
      Gen.oneOf(1e-9, 1.0, 1e9).map(Varying(_)))
    seed <- Gen.choose(0L, Long.MaxValue / 64)
  } yield Pilot(sizes, rates, stat, seed)

  test("allocationFromPilot's shares are finite, non-negative and sum to 1 within 1e-12") {
    val params = Check.Parameters.default.withMinSuccessfulTests(2000).withInitialSeed(Seed(20210801L))
    val result = Check.check(params, Prop.forAllNoShrink(pilots) { p =>
      val t = Estimators.allocationFromPilot(p.draws.map(Estimators.fromDraws))
      t.length == p.sizes.length && t.forall(x => java.lang.Double.isFinite(x) && x >= 0) &&
        math.abs(t.sum - 1.0) <= 1e-12
    })
    assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
  }

  // Shares over a pilot's strata: the pilot's own allocation, or random
  // shares where some strata (positive-mass ones included) get exactly 0.
  private def shares(p: Pilot): Gen[Array[Double]] =
    Gen.oneOf(
      Gen.const(Estimators.allocationFromPilot(p.draws.map(Estimators.fromDraws))),
      Gen.listOfN(p.sizes.length, Gen.oneOf(Gen.const(0.0), Gen.choose(0.0, 1.0))).map(_.toArray))

  test("GroupBy.baseVariance equals allocationMse at N = 1, floored at 1e-12, bit for bit") {
    val params = Check.Parameters.default.withMinSuccessfulTests(2000).withInitialSeed(Seed(20210802L))
    val cases = for { p <- pilots; t <- shares(p) } yield (p, t)
    val result = Check.check(params, Prop.forAllNoShrink(cases) { case (p, t) =>
      val cells = p.draws.map(Estimators.fromDraws)
      val expected = math.max(
        Estimators.allocationMse(cells.map(_.pHat).toArray, cells.map(_.sigmaHat).toArray, t, 1.0), 1e-12)
      Prop(GroupBy.baseVariance(cells, t) == expected) :| s"cells $cells, shares ${t.toSeq}"
    })
    assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
  }
}

object AllocationPropertySpec {
  sealed trait Stat
  case object Constant extends Stat
  final case class Varying(scale: Double) extends Stat
  case object NoPositives extends Stat

  final case class Pilot(sizes: List[Int], rates: List[Double], stat: Stat, seed: Long) {
    def draws: Vector[StratumDraws] = {
      val r = new Random(seed)
      sizes.zip(rates).toVector.map { case (n, rate) =>
        val flags = Array.fill(n)(stat != NoPositives && r.nextDouble() < rate)
        val stats = Array.fill(n)(stat match {
          case Varying(scale) => scale * r.nextGaussian()
          case _ => 3.0
        })
        StratumDraws(flags, stats)
      }
    }
  }
}
