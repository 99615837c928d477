package repro.core

import scala.language.implicitConversions
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.sql.types.StructType
import repro.data.{IdColumns, Stratification}
import repro.sampling.PrefixSampler

/** ABAE's Spark engine over a dataset with columns
  * `(id, proxy, positive, stat)`: one Spark job scans the columns to the
  * driver, and the local engine's [[Stratification]] and [[Abae.run]] do
  * the rest.
  *
  * Pipeline: scan the four columns into primitive arrays in id order
  * ([[IdColumns.collect]], as the local engine's records are read) →
  * stratify by proxy quantile (`Stratification`, the split of
  * `ntile(K) OVER (ORDER BY proxy, id)`) → rank each stratum by a seeded
  * hash of `id`, the order of `xxhash64(id, seed)` with ties by `id`, and
  * keep its first `budget` members, the only ones Algorithm 1 can ask for →
  * `Abae.run` with one [[PrefixSampler]] per stratum, so a rank prefix is
  * the uniform without-replacement sample and Stage 2 extends Stage 1's
  * prefix.
  *
  * Accounting: the scanned columns include `positive`/`stat`, as the local
  * engine's records do (the cost modeled is oracle calls, not dataflow),
  * but the algorithm reads them only through an oracle that charges one
  * call per row it serves. `sampled` holds exactly the served rows, so its
  * row count equals `oracleCalls`.
  *
  * Memory: the driver keeps about 29 bytes per row of `df` while a query
  * runs (the columns and the stratification order), and a query allocates
  * about 400 bytes per row on the way, collecting the columns and ranking
  * whole strata. On night-street at SF 4 (3.9M rows, `local[4]`, 4 vCPU)
  * a query allocated 1.47 GB and driver heap peaked 1.76 GB above its
  * pre-query level, so the driver's heap must grow with the table.
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

  private val SampledSchema = StructType.fromDDL("id BIGINT, stratum INT, rk INT, positive BOOLEAN, stat DOUBLE")

  /** Run Algorithm 1 through Spark. `df` must have columns
    * `(id, proxy, positive, stat)` with distinct ids and no nulls; a
    * repeated id and a null fail the query, naming the id. A served
    * positive row whose `stat` is not finite is rejected, naming its `id`.
    */
  def run(df: DataFrame, budget: Int, params: AbaeParams, seed: Long): SparkResult = {
    val (t, strat, ranked) = prepare(df, params.k, budget, seed)

    val served = new java.util.ArrayList[Row]()
    def oracle(s: Int, i: Int): (Boolean, Double) = {
      val r = ranked(s)(i)
      val (positive, stat) = (t.positive(r), t.stat(r))
      require(!positive || java.lang.Double.isFinite(stat),
        s"stat has a non-finite value ($stat) at id ${t.id(r)}, a positive row")
      served.add(Row(t.id(r), s + 1, i + 1, positive, stat))
      (positive, stat)
    }
    val sizes = Vector.tabulate(params.k)(strat.size)
    val result = Abae.run(sizes, oracle _, ranked.map(c => new PrefixSampler(c.length)), budget, params)
    SparkResult(result, df.sparkSession.createDataFrame(served, SampledSchema))
  }

  /** Each stratum's first `budget` ids in rank order, as `run` sees them:
    * stratum `s + 1`'s row of rank `j + 1` is `candidates(…)(s)(j)`.
    */
  private[core] def candidates(df: DataFrame, k: Int, budget: Int, seed: Long): Vector[Array[Long]] = {
    val (t, _, ranked) = prepare(df, k, budget, seed)
    ranked.map(_.map(t.id))
  }

  /** The rank key of row `id`: bit for bit Spark's
    * `xxhash64(col("id"), lit(seed))`, which hashes `id` under xxhash64's
    * default seed 42 and then `seed` under that hash.
    */
  private[core] def rankHash(id: Long, seed: Long): Long = XXH64.hashLong(seed, XXH64.hashLong(id, 42))

  /** `df`'s columns in id order, their K strata, and each stratum's first
    * min(`budget`, |S_s|) records in (`rankHash`, id) order, as indices
    * into the columns.
    */
  private def prepare(df: DataFrame, k: Int, budget: Int, seed: Long): (IdColumns, Stratification, Vector[Array[Int]]) = {
    val t = IdColumns.collect(df)
    val strat = Stratification(t.proxy, k)
    val ranked = Vector.tabulate(k) { s =>
      val members = strat.indices(s)
      // Index order is id order, and the radix sort is stable, so hash
      // ties fall back to id.
      java.util.Arrays.sort(members)
      val order = Stratification.sortedOrder(members.map(r => rankHash(t.id(r), seed) ^ Long.MinValue))
      Array.tabulate(math.min(budget, members.length))(j => members(order(j)))
    }
    (t, strat, ranked)
  }
}
