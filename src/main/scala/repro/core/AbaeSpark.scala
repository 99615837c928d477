package repro.core

import scala.language.implicitConversions
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.StructType
import repro.data.{IdColumns, Stratification}

/** ABAE's Spark engine over a dataset with columns
  * `(id, proxy, positive, stat)`: one Spark job scans the columns to the
  * driver, and the local engine's [[Stratification]] and [[Abae.run]] do
  * the rest.
  *
  * Pipeline: scan the four columns into primitive arrays in id order
  * ([[IdColumns.collect]], as the local engine's records are read) →
  * stratify by proxy quantile (`Stratification`, the split of
  * `ntile(K) OVER (ORDER BY proxy, id)`) → `Abae.run` with the local
  * engine's seeded [[Abae.samplers]], so a seed draws the same records,
  * and gives the same answer, as `Abae.run` over the same table's
  * `StratifiedLocal`.
  *
  * Accounting: the scanned columns include `positive`/`stat`, as the local
  * engine's records do (the cost modeled is oracle calls, not dataflow),
  * but the algorithm reads them only through an oracle that charges one
  * call per row it serves. `sampled` holds exactly the served rows, so its
  * row count equals `oracleCalls`; a row's `rk` is its draw number in its
  * stratum, so `rk ≤ N1` selects Stage 1.
  *
  * Memory: the driver keeps about 29 bytes per row of `df` while a query
  * runs (the columns and the stratification order; the samplers add one
  * bit per row), and a query allocates 310–330 bytes per row on the way.
  * On night-street (budget 10000, K=5, `local[4]`, 4 vCPU) a query
  * allocated 322 MB at SF 1 (973k rows) and 1.2 GB at SF 4 (3.9M rows),
  * and driver heap peaked 1.46 GB above its pre-query level at SF 4, so
  * the driver's heap must grow with the table.
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
    val t = IdColumns.collect(df)
    val strat = Stratification(t.proxy, params.k)

    val served = new java.util.ArrayList[Row]()
    val drawn = new Array[Int](params.k)
    def oracle(s: Int, j: Int): (Boolean, Double) = {
      val r = strat.record(s, j)
      val (positive, stat) = (t.positive(r), t.stat(r))
      require(!positive || java.lang.Double.isFinite(stat),
        s"stat has a non-finite value ($stat) at id ${t.id(r)}, a positive row")
      drawn(s) += 1
      served.add(Row(t.id(r), s + 1, drawn(s), positive, stat))
      (positive, stat)
    }
    val sizes = Vector.tabulate(params.k)(strat.size)
    val result = Abae.run(sizes, oracle _, Abae.samplers(sizes, seed), budget, params)
    SparkResult(result, df.sparkSession.createDataFrame(served, SampledSchema))
  }
}
