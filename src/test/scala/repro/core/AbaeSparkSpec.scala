package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.{Datasets, StratifiedLocal, StratumRecords}
import repro.sampling.PrefixSampler

/** Spark-engine tests: Catalyst stratification/sampling/aggregation, the
  * DuckDB equivalence checks for every aggregation the engine performs,
  * and exact agreement with the local engine on identical draws.
  */
class AbaeSparkSpec extends SparkSpec {

  private lazy val df = Datasets.generate(spark, Datasets.celeba, sf = 0.05).cache()
  private lazy val n = df.count().toInt

  // ------------------------------------------------------------- stratify

  test("stratify produces K strata with NTILE sizes") {
    val counts = AbaeSpark.stratify(df, 5)
      .groupBy("stratum").count().orderBy("stratum").collect()
    assert(counts.map(_.getInt(0)).toSeq == (1 to 5))
    assert(counts.map(_.getLong(1).toInt).toSeq == StratifiedLocal.ntileSizes(n, 5).toSeq)
  }

  test("stratify orders strata by proxy score") {
    val bounds = AbaeSpark.stratify(df, 4)
      .groupBy("stratum").agg(min("proxy").as("lo"), max("proxy").as("hi"))
      .orderBy("stratum").collect()
    for (i <- 0 until 3)
      assert(bounds(i).getDouble(2) <= bounds(i + 1).getDouble(1) + 1e-12)
  }

  test("stratify matches the local ntile stratifier record-for-record") {
    val local = Datasets.local(spark, Datasets.celeba, sf = 0.05)
    val localIdx = StratifiedLocal.ntileIndices(local.proxy, 5)
    val sparkAssign = AbaeSpark.stratify(df, 5)
      .select("id", "stratum").collect()
      .map(r => r.getLong(0) -> r.getInt(1)).toMap
    for (s <- 0 until 5; i <- localIdx(s))
      assert(sparkAssign(i.toLong) == s + 1, s"record $i: spark=${sparkAssign(i.toLong)} local=${s + 1}")
  }

  // ---------------------------------------------------------- permutation

  test("permutationRanks are a permutation of 1..size within each stratum") {
    val ranked = AbaeSpark.permutationRanks(AbaeSpark.stratify(df, 5), seed = 11)
    val byStratum = ranked.groupBy("stratum")
      .agg(count(lit(1)).as("n"), min("rk").as("lo"), max("rk").as("hi"),
        countDistinct("rk").as("d"))
      .collect()
    byStratum.foreach { r =>
      val size = r.getLong(1)
      assert(r.getInt(2) == 1 && r.getInt(3).toLong == size && r.getLong(4) == size)
    }
  }

  test("permutationRanks differ across seeds but are stable within a seed") {
    val st = AbaeSpark.stratify(df, 3)
    def firstIds(seed: Long): Seq[Long] =
      AbaeSpark.permutationRanks(st, seed).filter(col("rk") === 1)
        .orderBy("stratum").select("id").collect().map(_.getLong(0)).toSeq
    assert(firstIds(1) == firstIds(1))
    assert(firstIds(1) != firstIds(2))
  }

  // -------------------------------------------------- DuckDB equivalence

  test("stratumAgg matches DuckDB on the full stratified dataset") {
    val stratified = AbaeSpark.stratify(df, 4).select("stratum", "positive", "stat")
    val agg = AbaeSpark.stratumAgg(stratified)
    Oracle.assertEquivalent(
      agg,
      """SELECT CAST(stratum AS INT) AS stratum,
        |       COUNT(*) AS draws,
        |       SUM(CASE WHEN positive = 'true' THEN 1 ELSE 0 END) AS npos,
        |       CAST(SUM(CASE WHEN positive = 'true' THEN 1 ELSE 0 END) AS DOUBLE)
        |         / COUNT(*) AS p,
        |       COALESCE(AVG(CASE WHEN positive = 'true' THEN CAST(stat AS DOUBLE) END), 0.0) AS mu,
        |       COALESCE(STDDEV_SAMP(CASE WHEN positive = 'true' THEN CAST(stat AS DOUBLE) END), 0.0) AS sigma
        |FROM s GROUP BY stratum""".stripMargin,
      "s" -> stratified)
  }

  test("stratumAgg of a sampled prefix matches DuckDB") {
    val ranked = AbaeSpark.permutationRanks(AbaeSpark.stratify(df, 5), seed = 3)
    val sampled = ranked.filter(col("rk") <= 50).select("stratum", "positive", "stat")
    Oracle.assertEquivalent(
      AbaeSpark.stratumAgg(sampled),
      """SELECT CAST(stratum AS INT) AS stratum,
        |       COUNT(*) AS draws,
        |       SUM(CASE WHEN positive = 'true' THEN 1 ELSE 0 END) AS npos,
        |       CAST(SUM(CASE WHEN positive = 'true' THEN 1 ELSE 0 END) AS DOUBLE)
        |         / COUNT(*) AS p,
        |       COALESCE(AVG(CASE WHEN positive = 'true' THEN CAST(stat AS DOUBLE) END), 0.0) AS mu,
        |       COALESCE(STDDEV_SAMP(CASE WHEN positive = 'true' THEN CAST(stat AS DOUBLE) END), 0.0) AS sigma
        |FROM s GROUP BY stratum""".stripMargin,
      "s" -> sampled)
  }

  test("ground-truth query matches DuckDB (AVG over the predicate)") {
    val truthDf = df.filter(col("positive")).agg(avg("stat").as("mu"))
    Oracle.assertEquivalent(
      truthDf,
      "SELECT AVG(CAST(stat AS DOUBLE)) AS mu FROM d WHERE positive = 'true'",
      "d" -> df.select("positive", "stat"))
  }

  test("the combined estimate formula matches DuckDB's weighted aggregation") {
    val res = AbaeSpark.run(df, budget = 2000, AbaeParams(k = 5), seed = 5)
    val sampled = res.sampled.select("stratum", "positive", "stat")
    val estDf = AbaeSpark.stratumAgg(sampled)
      .agg((sum(col("p") * col("mu")) / sum(col("p"))).as("estimate"))
    Oracle.assertEquivalent(
      estDf,
      """WITH per AS (
        |  SELECT stratum,
        |         CAST(SUM(CASE WHEN positive = 'true' THEN 1 ELSE 0 END) AS DOUBLE)
        |           / COUNT(*) AS p,
        |         COALESCE(AVG(CASE WHEN positive = 'true' THEN CAST(stat AS DOUBLE) END), 0.0) AS mu
        |  FROM s GROUP BY stratum)
        |SELECT SUM(p * mu) / SUM(p) AS estimate FROM per""".stripMargin,
      "s" -> sampled)
    assert(math.abs(estDf.collect()(0).getDouble(0) - res.estimate) < 1e-9)
  }

  // ------------------------------------------------------------------ run

  test("run estimates close to ground truth and spends within budget") {
    val truth = df.filter(col("positive")).agg(avg("stat")).collect()(0).getDouble(0)
    val res = AbaeSpark.run(df, budget = 2000, AbaeParams(k = 5), seed = 1)
    assert(res.oracleCalls <= 2000)
    assert(res.oracleCalls >= 2000 - 5 - 4)
    assert(math.abs(res.estimate - truth) < 0.1, s"est=${res.estimate} truth=$truth")
  }

  test("run rejects a budget below 2K, as the local engine does") {
    for (budget <- Seq(3, 4, 9)) {
      val e = intercept[IllegalArgumentException](AbaeSpark.run(df, budget, AbaeParams(k = 5), seed = 1))
      assert(e.getMessage.contains(s"budget $budget too small for 5 strata"))
    }
    assert(AbaeSpark.run(df, budget = 10, AbaeParams(k = 5), seed = 1).oracleCalls <= 10)
  }

  test("run is deterministic in the seed") {
    val a = AbaeSpark.run(df, 1000, AbaeParams(k = 4), seed = 9)
    val b = AbaeSpark.run(df, 1000, AbaeParams(k = 4), seed = 9)
    assert(a.estimate == b.estimate)
    assert(a.allocation.toSeq == b.allocation.toSeq)
  }

  test("run without reuse uses only stage-2 draws in final estimates") {
    val res = AbaeSpark.run(df, 1000, AbaeParams(k = 5, reuse = false), seed = 2)
    val n1 = Abae.stage1PerStratum(1000, AbaeParams(k = 5))
    res.perStratum.zip(res.stage1).foreach { case (fin, s1) =>
      assert(s1.draws == n1)
      // final draws exclude the n1 stage-1 draws
      assert(fin.draws <= res.oracleCalls - 5 * n1)
    }
  }

  test("Spark engine and local engine agree exactly on identical draws") {
    val params = AbaeParams(k = 5)
    val seed = 17L
    val sparkRes = AbaeSpark.run(df, budget = 1500, params, seed)

    // Rebuild the exact per-stratum permutation order locally and replay
    // the algorithm with prefix samplers.
    val ranked = AbaeSpark.permutationRanks(AbaeSpark.stratify(df, 5), seed)
      .select("stratum", "rk", "positive", "stat")
      .orderBy("stratum", "rk")
      .collect()
    val strata = Vector.tabulate(5) { s =>
      val rows = ranked.filter(_.getInt(0) == s + 1)
      StratumRecords(rows.map(_.getBoolean(2)), rows.map(_.getDouble(3)))
    }
    val stratified = StratifiedLocal(strata)
    val samplers = stratified.strata.map(st => new PrefixSampler(st.n))
    val localRes = Abae.run(
      stratified.sizes,
      (k, i) => (stratified.strata(k).positive(i), stratified.strata(k).stat(i)),
      samplers, budget = 1500, params)

    assert(math.abs(localRes.estimate - sparkRes.estimate) < 1e-9,
      s"local=${localRes.estimate} spark=${sparkRes.estimate}")
    assert(localRes.oracleCalls == sparkRes.oracleCalls)
    localRes.perStratum.zip(sparkRes.perStratum).foreach { case (l, s) =>
      assert(l.draws == s.draws && l.positives == s.positives)
      assert(math.abs(l.muHat - s.muHat) < 1e-9)
    }
  }
}
