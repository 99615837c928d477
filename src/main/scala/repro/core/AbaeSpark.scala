package repro.core

import scala.language.implicitConversions
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.StructType
import repro.data.{IdColumns, PredicateOracle, Stratification}

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
  * but the algorithm reads them only through one [[PredicateOracle]],
  * which charges one call per row it serves, one batch per stage and
  * stratum. `sampled` holds exactly the served rows, so its row count
  * equals `oracleCalls`; a row's `rk` is its draw number in its stratum,
  * so `rk ≤ N1` selects Stage 1.
  *
  * Memory: the driver keeps about 29 bytes per row of `df` while a query
  * runs (the columns and the stratification order; the samplers add one
  * bit per row), and a query allocates about 305–330 bytes per row on the
  * way. Measured on cached night-street (budget 10000, K=5, `local[4]`,
  * 8 GB driver heap, 4 vCPU, warm queries), with the allocation read from
  * `ThreadMXBean` over all threads and the heap peak summed over each heap
  * pool's own peak (an upper bound): at SF 1 (973k rows) a query allocated
  * 321 MB (330 B/row) and heap peaked 204–328 MB above its pre-query
  * level; at SF 4 (3.9M rows), 1.20 GB (309 B/row) and 0.88–1.10 GB. So
  * the driver's heap must grow with the table; ROADMAP item 4 has these
  * numbers and SF 16's.
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

    // One oracle over the scanned columns, read through the stratification.
    // Each served row is checked and kept, in the order served, for `sampled`.
    val oracle = new PredicateOracle(t.positive, t.stat)
    val served = new java.util.ArrayList[Row]()
    val drawn = new Array[Int](params.k)
    def label(s: Int, idx: Array[Int]): StratumDraws = {
      val d = oracle.label(strat, s, idx)
      var i = 0
      while (i < d.n) {
        val id = t.id(strat.record(s, idx(i)))
        require(!d.flags(i) || java.lang.Double.isFinite(d.stats(i)),
          s"stat has a non-finite value (${d.stats(i)}) at id $id, a positive row")
        drawn(s) += 1
        served.add(Row(id, s + 1, drawn(s), d.flags(i), d.stats(i)))
        i += 1
      }
      d
    }
    val sizes = Vector.tabulate(params.k)(strat.size)
    val result = Abae.run(Abae.samplers(sizes, seed), label _, budget, params)
    SparkResult(result, df.sparkSession.createDataFrame(served, SampledSchema))
  }
}
