package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{AbaeParams, AbaeSpark, Bootstrap, Estimators}
import repro.data.Datasets
import repro.sampling.Rng

/** End-to-end ABAE query through the Spark engine, the shape of the
  * paper's §2.2 examples:
  *
  * {{{
  * SELECT AVG(stat) FROM night_street WHERE positive
  * ORACLE LIMIT 10000 USING proxy WITH PROBABILITY 0.95
  * }}}
  *
  * Usage: `spark-submit ... repro.jobs.AbaeQueryJob [dataset] [budget]`
  */
object AbaeQueryJob {
  def main(args: Array[String]): Unit = {
    val dataset = args.headOption.getOrElse("night-street")
    val budget = args.lift(1).map(_.toInt).getOrElse(10000)
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("abae-query").getOrCreate()
    try {
      val profile = Datasets.byName(dataset)
      val df = Datasets.generate(spark, profile).cache()
      val res = AbaeSpark.run(df, budget, AbaeParams(k = 5), seed = 42)

      // Bootstrap the CI from the draws of both stages, per stratum.
      val ci = Bootstrap.ci(res.draws, beta = 1000, alpha = 0.05, Rng.stream(43, 0))

      val truth = df.filter("positive").agg(org.apache.spark.sql.functions.avg("stat"))
        .collect()(0).getDouble(0)
      println(s"dataset=$dataset budget=$budget")
      println(s"estimate=${res.estimate}  ci95=[${ci.lo}, ${ci.hi}]")
      println(s"exhaustive truth=$truth  oracle calls=${res.oracleCalls} " +
        s"(vs ${df.count()} for the exhaustive query)")
      println(s"stage-2 allocation=${res.allocation.toSeq}")
      println(s"prop2 optimal-MSE estimate=${
        Estimators.prop2Mse(res.perStratum.map(_.pHat).toArray,
          res.perStratum.map(_.sigmaHat).toArray, budget.toDouble)}")
    } finally spark.stop()
  }
}
