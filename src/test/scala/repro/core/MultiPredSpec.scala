package repro.core

import repro.{Oracle, SparkSpec}
import repro.data.{CountingOracle, ExtDatasets, LocalRecords, StratifiedLocal}
import repro.metrics.Metrics
import scala.util.Random

class MultiPredSpec extends SparkSpec {

  /** One record: scores a = 0.8, b = 0.3, c = 0.5; labels a, ¬b, c. */
  private lazy val record = spark.createDataFrame(Seq((0.8, 0.3, 0.5, true, false, true)))
    .toDF("proxy_a", "proxy_b", "proxy_c", "label_a", "label_b", "label_c")

  private def proxy(e: PredExpr): Double = record.select(MultiPred.proxyCol(e)).head().getDouble(0)
  private def label(e: PredExpr): Boolean = record.select(MultiPred.labelCol(e)).head().getBoolean(0)

  // ------------------------------------------------------- proxy combination

  test("negation is 1 - s") {
    assert(math.abs(proxy(Not(Pred("a"))) - 0.2) < 1e-12)
  }

  test("conjunction is the product") {
    assert(math.abs(proxy(And(Pred("a"), Pred("b"))) - 0.24) < 1e-12)
  }

  test("disjunction is the max") {
    assert(proxy(Or(Pred("a"), Pred("b"))) == 0.8)
  }

  test("nested expressions compose the substitutions") {
    // (a AND NOT b) OR c = max(0.8 * 0.7, 0.5) = 0.56
    val e = Or(And(Pred("a"), Not(Pred("b"))), Pred("c"))
    assert(math.abs(proxy(e) - 0.56) < 1e-12)
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
    val exprs = Vector.fill(200)(randomExpr(1 + rng.nextInt(4)))
    val scores = spark.createDataFrame(Seq.fill(200)((rng.nextDouble(), rng.nextDouble(), rng.nextDouble())))
      .toDF("proxy_a", "proxy_b", "proxy_c")
    // All 200 expressions in one select: one Spark job.
    for (row <- scores.select(exprs.map(MultiPred.proxyCol): _*).collect(); j <- exprs.indices) {
      val v = row.getDouble(j)
      assert(v >= 0.0 && v <= 1.0, s"${exprs(j)} -> $v")
    }
  }

  // --------------------------------------------------------- oracle semantics

  test("labelCol implements Boolean semantics") {
    assert(label(Pred("a")))
    assert(!label(Not(Pred("a"))))
    assert(!label(And(Pred("a"), Pred("b"))))
    assert(label(Or(Pred("a"), Pred("b"))))
    assert(label(And(Pred("a"), Or(Pred("b"), Pred("c")))))
  }

  test("names collects every referenced predicate") {
    val e = Or(And(Pred("a"), Not(Pred("b"))), Pred("c"))
    assert(e.names == Set("a", "b", "c"))
  }

  // --------------------------------------------------------------------- lower

  private val (cars, red) = (Pred("cars"), Pred("red"))

  test("lower produces the combined proxy and combined label per record") {
    val df = spark.createDataFrame(Seq((0L, 1.0, 0.9, 0.8, true, true), (1L, 2.0, 0.1, 0.7, false, true)))
      .toDF("id", "stat", "proxy_x", "proxy_y", "label_x", "label_y")
    val lowered = MultiPred.lower(And(Pred("x"), Pred("y")), df)
    assert(lowered.columns.toSeq == Seq("id", "proxy", "positive", "stat"))
    val rec = LocalRecords.fromDf(lowered)
    assert(math.abs(rec.proxy(0) - 0.72) < 1e-12)
    assert(math.abs(rec.proxy(1) - 0.07) < 1e-12)
    assert(rec.positive.toSeq == Seq(true, false))
    assert(rec.stat.toSeq == Seq(1.0, 2.0))
  }

  test("lower rejects expressions over unknown predicates") {
    val df = spark.createDataFrame(Seq((0L, 1.0, 0.5, true, 0.5))).toDF("id", "stat", "proxy_x", "label_x", "proxy_y")
    for (e <- Seq(Pred("zzz"), And(Pred("x"), Pred("y")))) {
      val err = intercept[IllegalArgumentException](MultiPred.lower(e, df))
      assert(err.getMessage.contains(s"unknown predicates: ${(e.names - "x").head}"), err.getMessage)
    }
  }

  test("lower combines the single-predicate lowerings bit for bit") {
    val df = ExtDatasets.nightStreetMultiPred(spark, sf = 0.05)
    def lowered(e: PredExpr) = LocalRecords.fromDf(MultiPred.lower(e, df))
    val (a, b) = (lowered(cars), lowered(red))
    def bits(xs: Array[Double]) = xs.map(java.lang.Double.doubleToRawLongBits).toSeq
    for ((e, p, l) <- Seq[(PredExpr, (Double, Double) => Double, (Boolean, Boolean) => Boolean)](
        (And(cars, red), _ * _, _ && _),
        (Or(cars, Not(red)), (pa, pb) => math.max(pa, 1.0 - pb), _ || !_),
        (Not(And(cars, red)), (pa, pb) => 1.0 - pa * pb, (la, lb) => !(la && lb)))) {
      val rec = lowered(e)
      assert(bits(rec.proxy) == bits(a.proxy.indices.map(i => p(a.proxy(i), b.proxy(i))).toArray), e)
      assert(rec.positive.toSeq == a.positive.indices.map(i => l(a.positive(i), b.positive(i))), e)
      assert(bits(rec.stat) == bits(a.stat), e)
    }
  }

  test("lower matches DuckDB's projection of the expression") {
    val rng = new Random(3)
    val df = spark.createDataFrame(Seq.tabulate(60)(i => (i.toLong, rng.nextGaussian(),
        rng.nextDouble(), rng.nextDouble(), rng.nextBoolean(), rng.nextBoolean())))
      .toDF("id", "stat", "proxy_x", "proxy_y", "label_x", "label_y")
    val (x, y) = (Pred("x"), Pred("y"))
    def check(e: PredExpr, proxySql: String, labelSql: String): Unit =
      Oracle.assertEquivalent(MultiPred.lower(e, df),
        s"""SELECT CAST(id AS BIGINT) AS id, $proxySql AS proxy, $labelSql AS positive,
           |       CAST(stat AS DOUBLE) AS stat
           |FROM (SELECT id, stat, CAST(proxy_x AS DOUBLE) AS px, CAST(proxy_y AS DOUBLE) AS py,
           |             CAST(label_x AS BOOLEAN) AS lx, CAST(label_y AS BOOLEAN) AS ly FROM t)""".stripMargin,
        "t" -> df)
    check(And(x, y), "px * py", "lx AND ly")
    check(Or(x, Not(y)), "GREATEST(px, 1.0 - py)", "lx OR NOT ly")
    check(Not(And(x, y)), "1.0 - px * py", "NOT (lx AND ly)")
  }

  // ---------------------------------------------------------------- end to end

  test("ABAE-MultiPred beats uniform sampling on the traffic query") {
    val lowered = LocalRecords.fromDf(
      MultiPred.lower(And(cars, red), ExtDatasets.nightStreetMultiPred(spark, sf = 0.05)))
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
