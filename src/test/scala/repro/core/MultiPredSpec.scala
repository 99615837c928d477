package repro.core

import repro.SparkSpec
import repro.data.{CountingOracle, ExtDatasets, MultiPredRecords, StratifiedLocal}
import repro.metrics.Metrics
import scala.util.Random

class MultiPredSpec extends SparkSpec {

  private val scores = Map("a" -> 0.8, "b" -> 0.3, "c" -> 0.5)
  private val labels = Map("a" -> true, "b" -> false, "c" -> true)

  // ------------------------------------------------------- proxy combination

  test("negation is 1 - s") {
    assert(math.abs(MultiPred.combineProxy(Not(Pred("a")), scores) - 0.2) < 1e-12)
  }

  test("conjunction is the product") {
    assert(math.abs(MultiPred.combineProxy(And(Pred("a"), Pred("b")), scores) - 0.24) < 1e-12)
  }

  test("disjunction is the max") {
    assert(MultiPred.combineProxy(Or(Pred("a"), Pred("b")), scores) == 0.8)
  }

  test("nested expressions compose the substitutions") {
    // (a AND NOT b) OR c = max(0.8 * 0.7, 0.5) = 0.56
    val e = Or(And(Pred("a"), Not(Pred("b"))), Pred("c"))
    assert(math.abs(MultiPred.combineProxy(e, scores) - 0.56) < 1e-12)
  }

  test("combined scores of [0,1] proxies stay in [0,1] for random expressions") {
    val rng = new Random(0)
    def randomExpr(depth: Int): PredExpr =
      if (depth == 0) Pred(Seq("a", "b", "c")(rng.nextInt(3)))
      else rng.nextInt(3) match {
        case 0 => Not(randomExpr(depth - 1))
        case 1 => And(randomExpr(depth - 1), randomExpr(depth - 1))
        case 2 => Or(randomExpr(depth - 1), randomExpr(depth - 1))
      }
    for (_ <- 1 to 200) {
      val e = randomExpr(1 + rng.nextInt(4))
      val s = Map("a" -> rng.nextDouble(), "b" -> rng.nextDouble(), "c" -> rng.nextDouble())
      val v = MultiPred.combineProxy(e, s)
      assert(v >= 0.0 && v <= 1.0, s"$e -> $v")
    }
  }

  // --------------------------------------------------------- oracle semantics

  test("evalOracle implements Boolean semantics") {
    assert(MultiPred.evalOracle(Pred("a"), labels))
    assert(!MultiPred.evalOracle(Not(Pred("a")), labels))
    assert(!MultiPred.evalOracle(And(Pred("a"), Pred("b")), labels))
    assert(MultiPred.evalOracle(Or(Pred("a"), Pred("b")), labels))
    assert(MultiPred.evalOracle(And(Pred("a"), Or(Pred("b"), Pred("c"))), labels))
  }

  test("names collects every referenced predicate") {
    val e = Or(And(Pred("a"), Not(Pred("b"))), Pred("c"))
    assert(e.names == Set("a", "b", "c"))
  }

  // --------------------------------------------------------------------- lower

  test("lower produces the combined proxy and combined label per record") {
    val rec = MultiPredRecords(
      names = Vector("x", "y"),
      proxies = Map("x" -> Array(0.9, 0.1), "y" -> Array(0.8, 0.7)),
      labels = Map("x" -> Array(true, false), "y" -> Array(true, true)),
      stat = Array(1.0, 2.0))
    val lowered = MultiPred.lower(And(Pred("x"), Pred("y")), rec)
    assert(math.abs(lowered.proxy(0) - 0.72) < 1e-12)
    assert(math.abs(lowered.proxy(1) - 0.07) < 1e-12)
    assert(lowered.positive.toSeq == Seq(true, false))
    assert(lowered.stat.toSeq == Seq(1.0, 2.0))
  }

  test("lower rejects expressions over unknown predicates") {
    val rec = MultiPredRecords(Vector("x"), Map("x" -> Array(0.5)),
      Map("x" -> Array(true)), Array(1.0))
    intercept[IllegalArgumentException] { MultiPred.lower(Pred("zzz"), rec) }
  }

  // ---------------------------------------------------------------- end to end

  test("ABAE-MultiPred beats uniform sampling on the traffic query") {
    val rec = ExtDatasets.collectMultiPred(
      ExtDatasets.nightStreetMultiPred(spark, sf = 0.05), Vector("cars", "red"))
    val lowered = MultiPred.lower(And(Pred("cars"), Pred("red")), rec)
    val strat = StratifiedLocal(lowered, 5)
    val trials = 100
    val budget = 1500
    val abae = Metrics.rmse((1 to trials).map(s =>
      Abae.run(strat, new CountingOracle(strat), budget, AbaeParams(), s).estimate),
      strat.truth)
    val unif = Metrics.rmse((1 to trials).map(s =>
      UniformSampling.run(lowered, budget, s).estimate), lowered.truth)
    assert(abae < unif, s"abae=$abae uniform=$unif")
  }
}
