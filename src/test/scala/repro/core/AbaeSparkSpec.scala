package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.{Datasets, Stratification, StratifiedLocal, StratumRecords}
import repro.sampling.PrefixSampler

/** Spark-engine tests: the engine's strata and permutation ranks against
  * the window plan below and DuckDB's `NTILE`, the DuckDB equivalence
  * checks of the estimates over the sampled rows, and exact agreement with
  * the local engine on identical draws.
  */
class AbaeSparkSpec extends SparkSpec {

  private lazy val df = Datasets.generate(spark, Datasets.celeba, sf = 0.05).cache()
  private lazy val n = df.count().toInt

  // ------------------------------------------------ reference window plan

  /** Reference: a `stratum` column (1..k) from
    * `ntile(k) OVER (ORDER BY proxy, id)`, the split `ABAEInit` asks for.
    */
  private def stratify(df: DataFrame, k: Int): DataFrame =
    df.withColumn("stratum", ntile(k).over(Window.orderBy("proxy", "id")))

  /** Reference: `rk`, the row's position (1-based) in its stratum ordered
    * by `(xxhash64(id, seed), id)`, a seeded uniform random permutation.
    */
  private def permutationRanks(df: DataFrame, seed: Long): DataFrame =
    df.withColumn("rk", row_number().over(
      Window.partitionBy("stratum")
        .orderBy(xxhash64(col("id"), lit(seed)), col("id"))))

  /** The engine's whole strata in rank order, as rows `(id, stratum, rk)`. */
  private def engineRanks(d: DataFrame, k: Int, seed: Long): DataFrame = {
    val c = AbaeSpark.candidates(d, k, budget = Int.MaxValue, seed)
    spark.createDataFrame(for (s <- c.indices; j <- c(s).indices) yield (c(s)(j), s + 1, j + 1))
      .toDF("id", "stratum", "rk")
  }

  private def triples(d: DataFrame): Set[(Long, Int, Int)] =
    d.select("id", "stratum", "rk").collect().map(r => (r.getLong(0), r.getInt(1), r.getInt(2))).toSet

  // ------------------------------------------------------------- stratify

  test("stratify produces K strata with NTILE sizes") {
    val sizes = AbaeSpark.candidates(df, 5, budget = n, seed = 1).map(_.length)
    assert(sizes == StratifiedLocal.ntileSizes(n, 5).toSeq)
    val reference = stratify(df, 5).groupBy("stratum").count().orderBy("stratum").collect()
    assert(reference.map(_.getLong(1).toInt).toSeq == sizes)
  }

  test("stratify orders strata by proxy score") {
    val bounds = engineRanks(df, 4, seed = 1).join(df, "id")
      .groupBy("stratum").agg(min("proxy").as("lo"), max("proxy").as("hi"))
      .orderBy("stratum").collect()
    assert(bounds.map(_.getInt(0)).toSeq == (1 to 4))
    for (i <- 0 until 3)
      assert(bounds(i).getDouble(2) <= bounds(i + 1).getDouble(1) + 1e-12)
  }

  test("stratify matches the local ntile stratifier record-for-record") {
    val local = Datasets.local(spark, Datasets.celeba, sf = 0.05)
    val localIdx = StratifiedLocal.ntileIndices(local.proxy, 5)
    val reference = stratify(df, 5).select("id", "stratum").collect()
      .map(r => r.getLong(0) -> r.getInt(1)).toMap
    val engine = AbaeSpark.candidates(df, 5, budget = n, seed = 1)
    for (s <- 0 until 5) {
      for (id <- engine(s))
        assert(reference(id) == s + 1, s"id $id: window=${reference(id)} engine=${s + 1}")
      for (i <- localIdx(s))
        assert(reference(i.toLong) == s + 1, s"record $i: window=${reference(i.toLong)} local=${s + 1}")
    }
    assert(engine.map(_.length).sum == n)
  }

  test("Stratification orders signed zeros and NaN as the window does") {
    val proxy = Array(0.0, -0.0, Double.NaN, 0.5, -0.0, 0.0)
    val tiny = spark.createDataFrame(proxy.indices.map(i => (i.toLong, proxy(i), false, 0.0)))
      .toDF("id", "proxy", "positive", "stat")
    val window = stratify(tiny, proxy.length).orderBy("stratum").select("id").collect().map(_.getLong(0)).toSeq
    assert(window == Seq(0L, 1L, 4L, 5L, 3L, 2L))
    val strat = Stratification(proxy, proxy.length)
    assert((0 until proxy.length).map(strat.record(_, 0).toLong) == window)
    assert(AbaeSpark.candidates(tiny, proxy.length, budget = 1, seed = 1).map(_.head) == window)
  }

  // ---------------------------------------------------------- permutation

  test("permutationRanks are a permutation of 1..size within each stratum") {
    val engine = engineRanks(df, 5, seed = 11)
    val byStratum = engine.groupBy("stratum")
      .agg(count(lit(1)).as("n"), min("rk").as("lo"), max("rk").as("hi"),
        countDistinct("rk").as("d"))
      .collect()
    assert(byStratum.length == 5)
    byStratum.foreach { r =>
      val size = r.getLong(1)
      assert(r.getInt(2) == 1 && r.getInt(3).toLong == size && r.getLong(4) == size)
    }
    assert(triples(engine) == triples(permutationRanks(stratify(df, 5), seed = 11)))
  }

  test("permutationRanks differ across seeds but are stable within a seed") {
    def firstIds(seed: Long): Seq[Long] = AbaeSpark.candidates(df, 3, budget = 1, seed).map(_.head)
    assert(firstIds(1) == firstIds(1))
    assert(firstIds(1) != firstIds(2))
    val reference = permutationRanks(stratify(df, 3), seed = 2).filter(col("rk") === 1)
      .orderBy("stratum").select("id").collect().map(_.getLong(0)).toSeq
    assert(firstIds(2) == reference)
  }

  test("rankHash is Catalyst's xxhash64(id, seed)") {
    val ids = Seq(0L, 1L, -1L, 42L, -987654321012L, Long.MinValue, Long.MaxValue, Long.MinValue + 1, Long.MaxValue - 1)
    val ds = spark.createDataFrame(ids.map(Tuple1(_))).toDF("id")
    for (seed <- Seq(0L, 1L, 7L, -1L, -123456789L, Long.MinValue, Long.MaxValue)) {
      val catalyst = ds.select(col("id"), xxhash64(col("id"), lit(seed))).collect()
      assert(catalyst.length == ids.length)
      for (r <- catalyst)
        assert(AbaeSpark.rankHash(r.getLong(0), seed) == r.getLong(1), s"id=${r.getLong(0)} seed=$seed")
    }
  }

  // -------------------------------------------------- DuckDB equivalence

  test("stratify matches DuckDB's NTILE over (proxy, id)") {
    Oracle.assertEquivalent(
      engineRanks(df, 5, seed = 1).select("id", "stratum"),
      """SELECT CAST(id AS BIGINT) AS id,
        |       NTILE(5) OVER (ORDER BY CAST(proxy AS DOUBLE), CAST(id AS BIGINT)) AS stratum
        |FROM d""".stripMargin,
      "d" -> df.select("id", "proxy"))
  }

  /** DuckDB's per-stratum plug-in estimates over table `s`'s rows that
    * satisfy `where`, in `StratumEstimates`' terms.
    */
  private def perStratumSql(where: String = "TRUE"): String =
    s"""SELECT CAST(stratum AS INT) AS stratum,
       |       COUNT(*) AS draws,
       |       SUM(CASE WHEN positive = 'true' THEN 1 ELSE 0 END) AS npos,
       |       CAST(SUM(CASE WHEN positive = 'true' THEN 1 ELSE 0 END) AS DOUBLE)
       |         / COUNT(*) AS p,
       |       COALESCE(AVG(CASE WHEN positive = 'true' THEN CAST(stat AS DOUBLE) END), 0.0) AS mu,
       |       COALESCE(STDDEV_SAMP(CASE WHEN positive = 'true' THEN CAST(stat AS DOUBLE) END), 0.0) AS sigma
       |FROM s WHERE $where GROUP BY stratum""".stripMargin

  /** Strata 1..K's estimates as rows; strata without draws, which a SQL
    * `GROUP BY` cannot produce, are left out.
    */
  private def estimatesDf(est: Seq[StratumEstimates]) = spark.createDataFrame(
    est.zipWithIndex.collect { case (e, s) if e.draws > 0 =>
      (s + 1, e.draws, e.positives, e.pHat, e.muHat, e.sigmaHat)
    }).toDF("stratum", "draws", "npos", "p", "mu", "sigma")

  test("fromDraws matches DuckDB on the full stratified dataset") {
    val stratified = engineRanks(df, 4, seed = 1).join(df, "id").select("stratum", "positive", "stat")
    val rows = stratified.collect()
    val est = (1 to 4).map { s =>
      val mine = rows.filter(_.getInt(0) == s)
      Estimators.fromDraws(StratumDraws(mine.map(_.getBoolean(1)), mine.map(_.getDouble(2))))
    }
    Oracle.assertEquivalent(estimatesDf(est), perStratumSql(), "s" -> stratified)
  }

  test("run's stage-1 and final estimates match DuckDB") {
    for (reuse <- Seq(true, false)) {
      val params = AbaeParams(k = 5, reuse = reuse)
      val res = AbaeSpark.run(df, budget = 1000, params, seed = 3)
      val n1 = Abae.stage1PerStratum(1000, params)
      val sampled = res.sampled.select("stratum", "rk", "positive", "stat")
      Oracle.assertEquivalent(estimatesDf(res.stage1), perStratumSql(s"CAST(rk AS INT) <= $n1"), "s" -> sampled)
      Oracle.assertEquivalent(estimatesDf(res.perStratum),
        perStratumSql(if (reuse) "TRUE" else s"CAST(rk AS INT) > $n1"), "s" -> sampled)
    }
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
    Oracle.assertEquivalent(
      spark.createDataFrame(Seq(Tuple1(res.estimate))).toDF("estimate"),
      """WITH per AS (
        |  SELECT stratum,
        |         CAST(SUM(CASE WHEN positive = 'true' THEN 1 ELSE 0 END) AS DOUBLE)
        |           / COUNT(*) AS p,
        |         COALESCE(AVG(CASE WHEN positive = 'true' THEN CAST(stat AS DOUBLE) END), 0.0) AS mu
        |  FROM s GROUP BY stratum)
        |SELECT SUM(p * mu) / SUM(p) AS estimate FROM per""".stripMargin,
      "s" -> res.sampled.select("stratum", "positive", "stat"))
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

  test("run does not depend on the partitioning or order of its input") {
    val shuffled = df.repartition(7)
    for (seed <- Seq(4L, 5L)) {
      val a = AbaeSpark.run(df, 1500, AbaeParams(k = 5), seed)
      val b = AbaeSpark.run(shuffled, 1500, AbaeParams(k = 5), seed)
      assert(a.estimate == b.estimate)
      assert(a.perStratum == b.perStratum && a.stage1 == b.stage1)
      assert(a.draws.map(d => (d.flags.toSeq, d.stats.toSeq)) == b.draws.map(d => (d.flags.toSeq, d.stats.toSeq)))
      assert(a.allocation.toSeq == b.allocation.toSeq)
      assert(a.oracleCalls == b.oracleCalls)
      assert(a.sampled.collect().toSeq == b.sampled.collect().toSeq)
    }
  }

  test("run rejects a repeated id, naming it") {
    val repeated = df.union(df.filter(col("id") === 123))
    val e = intercept[IllegalArgumentException](AbaeSpark.run(repeated, 1000, AbaeParams(k = 5), seed = 1))
    assert(e.getMessage.contains("id 123 appears more than once"), e.getMessage)
  }

  test("run rejects a null column value, naming its id") {
    val withNull = df.withColumn("stat", when(col("id") === 77, lit(null)).otherwise(col("stat")))
    val e = intercept[Exception](AbaeSpark.run(withNull, 1000, AbaeParams(k = 5), seed = 1))
    assert(e.getMessage.contains("a null in (id, proxy, positive, stat) at id 77"), e.getMessage)
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

  test("run rejects a served positive row with a non-finite statistic, naming its id") {
    // 20 rows, K = 2 and budget 40: Stage 1 serves every row.
    def tiny(positive: Column, v: Double) = spark.range(20).select(col("id"), (col("id") / 20.0).as("proxy"),
      positive.as("positive"), when(col("id") === 7, lit(v)).otherwise(lit(1.0)).as("stat"))
    for (v <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val e = intercept[IllegalArgumentException](
        AbaeSpark.run(tiny(col("id") % 2 === 1, v), budget = 40, AbaeParams(k = 2), seed = 1))
      assert(e.getMessage.contains(s"stat has a non-finite value ($v) at id 7, a positive row"), e.getMessage)
    }
    assert(AbaeSpark.run(tiny(col("id") % 2 === 0, Double.NaN), budget = 40, AbaeParams(k = 2), seed = 1).estimate == 1.0)
  }

  test("Spark engine and local engine agree exactly on identical draws") {
    val k = 5
    for (seed <- Seq(17L, 18L, 19L)) {
      // Rebuild the exact per-stratum permutation order locally and replay
      // the algorithm with prefix samplers over whole strata.
      val ranked = permutationRanks(stratify(df, k), seed)
        .select("stratum", "rk", "positive", "stat")
        .orderBy("stratum", "rk")
        .collect()
      val stratified = StratifiedLocal(Vector.tabulate(k) { s =>
        val rows = ranked.filter(_.getInt(0) == s + 1)
        StratumRecords(rows.map(_.getBoolean(2)), rows.map(_.getDouble(3)))
      })
      // 2K is the smallest budget; 8000 exceeds every stratum's size, so
      // the Spark engine's candidates are whole strata.
      assert(stratified.sizes.max < 8000 && 8000 < n)
      for (budget <- Seq(2 * k, 1500, 8000); reuse <- Seq(true, false)) {
        val params = AbaeParams(k = k, reuse = reuse)
        val sparkRes = AbaeSpark.run(df, budget, params, seed)
        val localRes = Abae.run(
          stratified.sizes,
          (s, i) => (stratified.strata(s).positive(i), stratified.strata(s).stat(i)),
          stratified.sizes.map(new PrefixSampler(_)), budget, params)
        val at = s"seed=$seed budget=$budget reuse=$reuse"
        assert(sparkRes.estimate == localRes.estimate, at)
        assert(sparkRes.perStratum == localRes.perStratum, at)
        assert(sparkRes.allocation.toSeq == localRes.allocation.toSeq, at)
        assert(sparkRes.oracleCalls == localRes.oracleCalls, at)
      }
    }
  }
}
