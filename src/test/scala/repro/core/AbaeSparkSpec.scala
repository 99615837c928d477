package repro.core

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.{CountingOracle, Datasets, ExtDatasets, IdColumns, LocalRecords, Stratification, StratifiedLocal}

/** Spark-engine tests: the engine's strata against the window plan below
  * and DuckDB's `NTILE`, the DuckDB equivalence checks of the estimates
  * over the sampled rows, and exact agreement with the local engine's
  * seeded entry point.
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

  /** The engine's strata, as `run` computes them: stratum `s + 1`'s ids
    * in proxy order are `engineStrata(…)(s)`.
    */
  private def engineStrata(d: DataFrame, k: Int): Vector[Array[Long]] = {
    val t = IdColumns.collect(d)
    val strat = Stratification(t.proxy, k)
    Vector.tabulate(k)(s => strat.indices(s).map(t.id))
  }

  /** The engine's strata as rows `(id, stratum)`. */
  private def engineStratumDf(d: DataFrame, k: Int): DataFrame = {
    val c = engineStrata(d, k)
    spark.createDataFrame(for (s <- c.indices; id <- c(s)) yield (id, s + 1)).toDF("id", "stratum")
  }

  // ------------------------------------------------------------- stratify

  test("stratify produces K strata with NTILE sizes") {
    val sizes = engineStrata(df, 5).map(_.length)
    assert(sizes == StratifiedLocal.ntileSizes(n, 5).toSeq)
    val reference = stratify(df, 5).groupBy("stratum").count().orderBy("stratum").collect()
    assert(reference.map(_.getLong(1).toInt).toSeq == sizes)
  }

  test("stratify orders strata by proxy score") {
    val bounds = engineStratumDf(df, 4).join(df, "id")
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
    val engine = engineStrata(df, 5)
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
    assert(engineStrata(tiny, proxy.length).map(_.head) == window)
  }

  // -------------------------------------------------- DuckDB equivalence

  test("stratify matches DuckDB's NTILE over (proxy, id)") {
    Oracle.assertEquivalent(
      engineStratumDf(df, 5),
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
    val stratified = engineStratumDf(df, 4).join(df, "id").select("stratum", "positive", "stat")
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
    val strat = StratifiedLocal(Datasets.local(spark, Datasets.celeba, sf = 0.05), k)
    // 2K is the smallest budget; 8000 exceeds every stratum's size, so
    // Stage 2 exhausts strata.
    assert(strat.sizes.max < 8000 && 8000 < n)
    for (seed <- Seq(17L, 18L, 19L); budget <- Seq(2 * k, 1500, 8000); reuse <- Seq(true, false)) {
      val params = AbaeParams(k = k, reuse = reuse)
      val sparkRes = AbaeSpark.run(df, budget, params, seed)
      val localRes = Abae.run(strat, new CountingOracle(strat), budget, params, seed)
      val at = s"seed=$seed budget=$budget reuse=$reuse"
      def draws(r: AbaeResult) = r.draws.map(d => (d.flags.toSeq, d.stats.toSeq))
      assert(sparkRes.estimate == localRes.estimate, at)
      assert(sparkRes.perStratum == localRes.perStratum, at)
      assert(sparkRes.stage1 == localRes.stage1, at)
      assert(sparkRes.allocation.toSeq == localRes.allocation.toSeq, at)
      assert(sparkRes.oracleCalls == localRes.oracleCalls, at)
      assert(draws(sparkRes) == draws(localRes), at)
      // The served rows, in order, are each stratum's draws, numbered 1..n.
      val rows = sparkRes.sampled.select("stratum", "rk", "positive", "stat").collect()
        .map(r => (r.getInt(0), r.getInt(1), r.getBoolean(2), r.getDouble(3)))
      for (s <- 0 until k) {
        val mine = rows.filter(_._1 == s + 1)
        assert(mine.map(_._2).toSeq == (1 to mine.length), at)
        assert((mine.map(_._3).toSeq, mine.map(_._4).toSeq) == draws(localRes)(s), at)
      }
    }
  }

  test("Spark engine answers a lowered multi-predicate query exactly as the local engine does") {
    val k = 5
    val lowered = MultiPred.lower(And(Pred("cars"), Pred("red")), ExtDatasets.nightStreetMultiPred(spark, sf = 0.05))
      .cache()
    val rec = LocalRecords.fromDf(lowered)
    val strat = StratifiedLocal(rec, k)
    // 10000 exceeds every stratum's size, so Stage 2 exhausts strata.
    assert(strat.sizes.max < 10000 && 10000 < rec.n)
    for (seed <- Seq(21L, 22L, 23L); budget <- Seq(2 * k, 1500, 10000)) {
      val params = AbaeParams(k = k)
      val sparkRes = AbaeSpark.run(lowered, budget, params, seed)
      val localRes = Abae.run(strat, new CountingOracle(strat), budget, params, seed)
      val at = s"seed=$seed budget=$budget"
      def draws(r: AbaeResult) = r.draws.map(d => (d.flags.toSeq, d.stats.toSeq))
      assert(sparkRes.estimate == localRes.estimate, at)
      assert(sparkRes.perStratum == localRes.perStratum, at)
      assert(sparkRes.allocation.toSeq == localRes.allocation.toSeq, at)
      assert(sparkRes.oracleCalls == localRes.oracleCalls, at)
      assert(draws(sparkRes) == draws(localRes), at)
    }
    lowered.unpersist()
  }

  // ------------------------------------------------- repeat queries

  /** `body`'s value and the number of Spark jobs it started, counted by a
    * listener. A marker job run after `body` flushes the listener bus: it
    * delivers events in order, so once the marker's start arrives, every
    * job `body` started has been counted.
    */
  private def jobsDuring[A](body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val starts = new LinkedBlockingQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        starts.add(Option(e.properties).flatMap(p => Option(p.getProperty("repro.marker"))).getOrElse("job"))
    }
    sc.addSparkListener(listener)
    try {
      val a = body
      sc.setLocalProperty("repro.marker", "end")
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty("repro.marker", null)
      var jobs = 0
      var e = starts.poll(60, TimeUnit.SECONDS)
      while (e != "end") {
        assert(e != null, "the marker job's start never arrived")
        jobs += 1
        e = starts.poll(60, TimeUnit.SECONDS)
      }
      (a, jobs)
    } finally sc.removeSparkListener(listener)
  }

  /** Everything a query returns, in comparable form. */
  private def answer(r: AbaeSpark.SparkResult) =
    (r.estimate, r.perStratum, r.stage1, r.allocation.toSeq, r.oracleCalls,
      r.draws.map(d => (d.flags.toSeq, d.stats.toSeq)), r.sampled.collect().toSeq)

  test("a repeat query on a cached table answers as a fresh scan does") {
    val table = Datasets.generate(spark, Datasets.nightStreet, sf = 0.05)
    val cached = table.select("id", "proxy", "positive", "stat").cache()
    try {
      assert(table.storageLevel == org.apache.spark.storage.StorageLevel.NONE)
      for (k <- Seq(5, 3)) {
        AbaeSpark.run(cached, 2 * k, AbaeParams(k = k), seed = 0) // the first query scans
        // 10000 exceeds every stratum's size, so Stage 2 exhausts strata.
        for (seed <- Seq(1L, 2L, 3L); budget <- Seq(10, 1500, 10000)) {
          val (hit, jobs) = jobsDuring(AbaeSpark.run(cached, budget, AbaeParams(k = k), seed))
          assert(jobs == 0, s"k=$k seed=$seed budget=$budget")
          assert(answer(hit) == answer(AbaeSpark.run(table, budget, AbaeParams(k = k), seed)),
            s"k=$k seed=$seed budget=$budget")
        }
      }
    } finally cached.unpersist()
  }

  test("a repeat query on a cached table runs no Spark job; an uncached table is scanned every time") {
    val cached = df.filter(col("id") % 2 === 0).cache()
    try {
      val (first, firstJobs) = jobsDuring(AbaeSpark.run(cached, 1000, AbaeParams(k = 5), seed = 4))
      assert(firstJobs >= 1)
      val (again, againJobs) = jobsDuring(AbaeSpark.run(cached, 1000, AbaeParams(k = 5), seed = 4))
      assert(againJobs == 0)
      assert(answer(again) == answer(first))
    } finally cached.unpersist()
    val uncached = df.filter(col("id") % 2 === 1)
    for (_ <- 0 until 3) {
      val (_, jobs) = jobsDuring(AbaeSpark.run(uncached, 1000, AbaeParams(k = 5), seed = 4))
      assert(jobs >= 1)
    }
  }

  test("a query after a cached parquet table is unpersisted, overwritten and cached again sees the new rows") {
    val tmp = java.nio.file.Files.createTempDirectory("abae-recache").toFile
    val dir = new java.io.File(tmp, "t").toString
    val rows = Datasets.generate(spark, Datasets.celeba, sf = 0.02).select("id", "proxy", "positive", "stat")
    val shifted = rows.withColumn("stat", col("stat") + 100.0)
    def query(d: DataFrame) = AbaeSpark.run(d, 1500, AbaeParams(k = 5), seed = 6)
    try {
      rows.write.parquet(dir)
      val before = spark.read.parquet(dir).cache()
      val old = query(before)
      assert(answer(query(before)) == answer(old))
      before.unpersist(blocking = true)
      shifted.write.mode("overwrite").parquet(dir)
      val after = spark.read.parquet(dir).cache()
      try {
        val (res, jobs) = jobsDuring(query(after))
        assert(jobs >= 1)
        assert(answer(res) == answer(query(shifted)))
        assert(res.estimate > old.estimate + 50, s"${res.estimate} vs ${old.estimate}")
      } finally after.unpersist()
    } finally org.apache.commons.io.FileUtils.deleteDirectory(tmp)
  }

  test("a cached table with a repeated id fails on every query") {
    val repeated = df.union(df.filter(col("id") === 123)).cache()
    try {
      for (_ <- 0 until 3) {
        val e = intercept[IllegalArgumentException](AbaeSpark.run(repeated, 1000, AbaeParams(k = 5), seed = 1))
        assert(e.getMessage.contains("id 123 appears more than once"), e.getMessage)
      }
    } finally repeated.unpersist()
  }

  test("unpersisting a cached table drops its scan, with no further query") {
    val cached = df.filter(col("id") % 3 === 0).cache()
    val before = AbaeSpark.scanned
    AbaeSpark.run(cached, 1000, AbaeParams(k = 5), seed = 2)
    val kept = AbaeSpark.scanned -- before
    assert(kept.size == 1)
    // The marker job in jobsDuring flushes the listener bus.
    jobsDuring(cached.unpersist(blocking = true))
    assert((AbaeSpark.scanned intersect kept).isEmpty)
  }

  test("two seeds serve different first ids") {
    def firstIds(seed: Long): Seq[Long] =
      AbaeSpark.run(df, 10, AbaeParams(k = 5), seed).sampled.filter(col("rk") === 1)
        .orderBy("stratum").select("id").collect().map(_.getLong(0)).toSeq
    assert(firstIds(1).length == 5)
    assert(firstIds(1) != firstIds(2))
  }
}
