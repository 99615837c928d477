package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** ABAE's Spark engine: the same Algorithm 1, expressed end-to-end as
  * DataFrame transformations (Catalyst), over a dataset with columns
  * `(id, proxy, positive, stat)`.
  *
  * Pipeline: stratify by proxy quantile (`ntile`) → attach a seeded
  * per-stratum random permutation rank (`row_number` over `xxhash64`) →
  * Stage 1 is rank ≤ N1, Stage 2 extends each stratum's prefix by its
  * allocation — sampling without replacement and cross-stage sample
  * reuse both fall out of the single permutation, exactly like the local
  * engine's [[repro.sampling.PermutationSampler]].
  *
  * Oracle cost here is the number of sampled rows whose `positive`/`stat`
  * columns the plan reads — labels are never touched outside the sampled
  * prefixes. The per-stratum aggregations are plain `groupBy` aggregates
  * so the DuckDB oracle can check every one of them.
  */
object AbaeSpark {

  /** Outcome plus the intermediate DataFrames tests verify with DuckDB. */
  final case class SparkResult(
      estimate: Double,
      perStratum: Vector[StratumEstimates],
      stage1: Vector[StratumEstimates],
      allocation: Array[Double],
      oracleCalls: Long,
      finalAgg: DataFrame,
      sampled: DataFrame,
  )

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

  /** Per-stratum plug-in estimates of a sampled subset, as one Catalyst
    * aggregation. Output columns: stratum, draws, npos, p, mu, sigma.
    */
  def stratumAgg(sampled: DataFrame): DataFrame =
    sampled.groupBy("stratum").agg(
      count(lit(1)).as("draws"),
      sum(when(col("positive"), 1L).otherwise(0L)).as("npos"),
      (sum(when(col("positive"), 1L).otherwise(0L)) / count(lit(1))).as("p"),
      coalesce(avg(when(col("positive"), col("stat"))), lit(0.0)).as("mu"),
      coalesce(stddev_samp(when(col("positive"), col("stat"))), lit(0.0)).as("sigma"),
    )

  private def toEstimates(rows: Array[Row], k: Int): Vector[StratumEstimates] = {
    val byStratum = rows.map { r =>
      val stratum = r.getInt(r.fieldIndex("stratum"))
      val draws = r.getLong(r.fieldIndex("draws")).toInt
      val npos = r.getLong(r.fieldIndex("npos")).toInt
      val p = r.getDouble(r.fieldIndex("p"))
      val mu = r.getDouble(r.fieldIndex("mu"))
      // stddev_samp of a single value is NaN in some engines, null in
      // others; normalize both to the paper's 0 convention.
      val sigmaRaw = r.getDouble(r.fieldIndex("sigma"))
      val sigma = if (npos > 1 && !sigmaRaw.isNaN) sigmaRaw else 0.0
      stratum -> StratumEstimates(draws, npos, p, mu, sigma)
    }.toMap
    Vector.tabulate(k)(s => byStratum.getOrElse(s + 1, StratumEstimates(0, 0, 0.0, 0.0, 0.0)))
  }

  /** `sampled`'s draws (both stages) per stratum, the bootstrap's input. */
  def drawsOf(sampled: DataFrame, k: Int): Vector[StratumDraws] = {
    val rows = sampled.select("stratum", "positive", "stat").collect()
    Vector.tabulate(k) { s =>
      val mine = rows.filter(_.getInt(0) == s + 1)
      StratumDraws(mine.map(_.getBoolean(1)), mine.map(_.getDouble(2)))
    }
  }

  /** Run Algorithm 1 through Spark. `df` must have columns
    * `(id, proxy, positive, stat)`.
    */
  def run(df: DataFrame, budget: Int, params: AbaeParams, seed: Long): SparkResult = {
    val k = params.k
    require(budget >= 2 * k, s"budget $budget too small for $k strata")
    val ranked = permutationRanks(stratify(df, k), seed)
      .select("id", "stratum", "rk", "positive", "stat")
      .cache()
    try {
      val n1 = Abae.stage1PerStratum(budget, params)

      val stage1 = ranked.filter(col("rk") <= n1)
      val stage1Est = toEstimates(stratumAgg(stage1).collect(), k)

      val n2 = budget - stage1Est.map(_.draws).sum
      val tHat = Estimators.allocationFromPilot(stage1Est)

      // Per-stratum final cutoff rank: n1 + ⌊N2·T̂_k⌋, as a CASE column.
      val m = Estimators.stage2Sizes(n2, tHat)
      val cutoff = (1 to k).foldLeft(lit(0)) { (acc, s) =>
        when(col("stratum") === s, lit(n1 + m(s - 1))).otherwise(acc)
      }
      val sampled = ranked.filter(col("rk") <= cutoff)
      val finalCut = if (params.reuse) sampled else sampled.filter(col("rk") > n1)

      val finalAgg = stratumAgg(finalCut)
      val finalEst = toEstimates(finalAgg.collect(), k)
      // Sampled rows: the final cut, plus Stage 1 when it is not reused.
      val calls = (if (params.reuse) finalEst else finalEst ++ stage1Est).map(_.draws.toLong).sum

      SparkResult(Estimators.combine(finalEst), finalEst, stage1Est, tHat, calls, finalAgg, sampled)
    } finally ranked.unpersist()
  }
}
