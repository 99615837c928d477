package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.Datasets
import repro.sampling.Rng

/** End-to-end "ORACLE LIMIT" queries through the Spark engine on several
  * dataset profiles, checked against DuckDB ground truth and the
  * bootstrap CI contract.
  */
class QueryEndToEndSpec extends SparkSpec {

  private def truthOf(profile: Datasets.Profile, sf: Double): (Double, org.apache.spark.sql.DataFrame) = {
    val df = Datasets.generate(spark, profile, sf).cache()
    val truth = df.filter(col("positive")).agg(avg("stat")).collect()(0).getDouble(0)
    (truth, df)
  }

  for (profile <- Seq(Datasets.celeba, Datasets.trec05p, Datasets.amazonPosters)) {
    test(s"${profile.name}: Spark-engine ABAE estimate approximates the DuckDB-checked truth") {
      val sf = math.min(1.0, 25000.0 / profile.size)
      val (truth, df) = truthOf(profile, sf)
      try {
        // Ground truth agrees with DuckDB.
        Oracle.assertEquivalent(
          df.filter(col("positive")).agg(avg("stat").as("mu")),
          "SELECT AVG(CAST(stat AS DOUBLE)) AS mu FROM d WHERE positive = 'true'",
          "d" -> df.select("positive", "stat"))
        // The budgeted approximation lands near it.
        val res = AbaeSpark.run(df, budget = 2500, AbaeParams(k = 5), seed = 7)
        val scale = math.max(math.abs(truth), 1e-9)
        assert(math.abs(res.estimate - truth) / scale < 0.25,
          s"est=${res.estimate} truth=$truth")
        assert(res.oracleCalls <= 2500)
      } finally df.unpersist()
    }
  }

  test("bootstrap CI from the Spark engine's sample brackets the estimate") {
    val (_, df) = truthOf(Datasets.celeba, 0.1)
    try {
      val res = AbaeSpark.run(df, budget = 2000, AbaeParams(k = 5), seed = 11)
      val ci = Bootstrap.ci(res.draws, beta = 400, alpha = 0.05, Rng.stream(12, 0))
      assert(ci.contains(res.estimate), s"ci=$ci est=${res.estimate}")
      assert(ci.width > 0 && ci.width < 0.2, s"width=${ci.width}")
    } finally df.unpersist()
  }

  test("Spark-engine oracle-call accounting matches the sampled row count") {
    val (_, df) = truthOf(Datasets.trec05p, 0.3)
    try {
      for (reuse <- Seq(true, false)) {
        val res = AbaeSpark.run(df, budget = 1200, AbaeParams(k = 4, reuse = reuse), seed = 3)
        assert(res.oracleCalls == res.sampled.count())
        assert(res.oracleCalls <= 1200 && res.oracleCalls > 1200 - 4 - 4)
      }
    } finally df.unpersist()
  }
}
