package repro.core

import scala.language.implicitConversions
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.sampling.PrefixSampler

/** ABAE's Spark engine over a dataset with columns
  * `(id, proxy, positive, stat)`: Catalyst stratifies and ranks, and the
  * local [[Abae.run]] runs Algorithm 1 on the result.
  *
  * Pipeline: stratify by proxy quantile (`ntile`) → attach a seeded
  * per-stratum random permutation rank (`row_number` over `xxhash64`) →
  * collect each stratum's first `budget` rows in rank order, the only rows
  * Algorithm 1 can ask for → `Abae.run` with one [[PrefixSampler]] per
  * stratum, so a rank prefix is the uniform without-replacement sample and
  * Stage 2 extends Stage 1's prefix.
  *
  * Accounting: the collected rows carry their `positive`/`stat` columns,
  * as the local engine's records do (the cost modeled is oracle calls, not
  * dataflow), but the algorithm reads them only through an oracle that
  * charges one call per row it serves. `sampled` holds exactly the served
  * rows, so its row count equals `oracleCalls`.
  */
object AbaeSpark {

  /** The run's [[AbaeResult]], readable through an implicit view, plus a
    * local DataFrame of the served rows `(id, stratum, rk, positive, stat)`
    * in the order they were served.
    */
  final case class SparkResult(result: AbaeResult, sampled: DataFrame)

  object SparkResult {
    implicit def toAbaeResult(r: SparkResult): AbaeResult = r.result
  }

  /** Add a `stratum` column (1..k): proxy-quantile stratification via
    * `ntile(k) OVER (ORDER BY proxy, id)` — `ABAEInit` of Algorithm 1.
    * The `id` tiebreak makes the split deterministic under proxy ties.
    */
  def stratify(df: DataFrame, k: Int): DataFrame =
    df.withColumn("stratum", ntile(k).over(Window.orderBy("proxy", "id")))

  /** Add `rk`: the row's position (1-based) in a seeded uniform random
    * permutation of its stratum. A prefix of `rk` is a uniform
    * without-replacement sample.
    */
  def permutationRanks(df: DataFrame, seed: Long): DataFrame =
    df.withColumn("rk", row_number().over(
      Window.partitionBy("stratum")
        .orderBy(xxhash64(col("id"), lit(seed)), col("id"))))

  /** Run Algorithm 1 through Spark. `df` must have columns
    * `(id, proxy, positive, stat)`. A served positive row whose `stat` is
    * not finite is rejected, naming its `id`.
    */
  def run(df: DataFrame, budget: Int, params: AbaeParams, seed: Long): SparkResult = {
    val k = params.k
    // No stratum is asked for more than `budget` draws (n1 + n2 ≤ budget),
    // so a stratum's first `budget` ranks are all the sampler can reach.
    val candidateDf = permutationRanks(stratify(df, k), seed)
      .filter(col("rk") <= budget)
      .select("id", "stratum", "rk", "positive", "stat")
    val byStratum = candidateDf.collect().groupBy(_.getInt(1))
    val candidates = Vector.tabulate(k)(s => byStratum.getOrElse(s + 1, Array.empty[Row]).sortBy(_.getInt(2)))

    val served = new java.util.ArrayList[Row]()
    def oracle(s: Int, i: Int): (Boolean, Double) = {
      val row = candidates(s)(i)
      val (positive, stat) = (row.getBoolean(3), row.getDouble(4))
      require(!positive || java.lang.Double.isFinite(stat),
        s"stat has a non-finite value ($stat) at id ${row.get(0)}, a positive row")
      served.add(row)
      (positive, stat)
    }
    // Each stratum's population, as far as Algorithm 1 can see it.
    val sizes = candidates.map(_.length)
    val result = Abae.run(sizes, oracle _, sizes.map(new PrefixSampler(_)), budget, params)
    SparkResult(result, df.sparkSession.createDataFrame(served, candidateDf.schema))
  }
}
