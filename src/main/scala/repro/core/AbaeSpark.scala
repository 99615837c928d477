package repro.core

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.language.implicitConversions
import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerUnpersistRDD}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.classic.ClassicConversions.castToImpl
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
  * When a query scans: an uncached `df` on every query. A cached `df` on
  * its first query per cache entry: the scanned columns, and the
  * stratification per K, are kept for as long as that entry lives, so a
  * repeat query (any budget, seed or `reuse`) runs no Spark job and no
  * sort, and serves the same arrays a rescan would. `unpersist`,
  * `clearCache` or a re-`cache()` makes a new entry, which the next query
  * scans; the old entry's scan is freed as soon as Spark's listener bus
  * delivers the unpersist, with no further query. A scan that fails is
  * not kept, so a null or a repeated id fails every query; the check on
  * each served row runs on every query.
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
  * bit per row), and a query that scans allocates about 305–330 bytes per
  * row on the way. For a cached `df` the 29 bytes per row (and 4 more per
  * further K) stay on the driver until the table is unpersisted, and a
  * repeat query allocates no per-row scan at all. Measured on cached
  * night-street (budget 10000, K=5, `local[4]`, 8 GB driver heap, 4 vCPU),
  * with the allocation read from `ThreadMXBean` over all threads and the
  * heap peak summed over each heap pool's own peak (an upper bound): at
  * SF 1 (973k rows) a query that scanned allocated 320 MB (329 B/row) and
  * heap peaked 204–328 MB above its pre-query level; at SF 4 (3.9M rows),
  * 1.20 GB (309 B/row) and 0.88–1.10 GB. A repeat query allocated 5.4 MB
  * at SF 1 and 5.5 MB at SF 4, and the heap after a full GC stayed 31 MB
  * (SF 1) and 91 MB (SF 4) higher while the table stayed cached, 24–32
  * B/row. So the driver's heap must grow with the table; ROADMAP item 4
  * has these numbers and SF 16's.
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
    val (t, strat) = scan(df, params.k)

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

  /** A cached table's scan and its stratification for each K. */
  private final class Scanned(val columns: IdColumns) {
    val strata = mutable.Map.empty[Int, Stratification]
  }

  /** Keyed by the cache entry's buffer RDD, which compares by identity:
    * `unpersist`, `clearCache` and a re-`cache()` each give the table a new
    * one. A listener per [[SparkContext]] drops an entry when Spark
    * unpersists its RDD; the weak keys free those of a context that stops
    * first.
    */
  private val scans = new java.util.WeakHashMap[RDD[_], Scanned]()
  private val listening = java.util.Collections.newSetFromMap(new java.util.WeakHashMap[SparkContext, java.lang.Boolean])

  /** The ids of the buffer RDDs whose scans are kept. */
  private[core] def scanned: Set[Int] = scans.synchronized(scans.keySet.asScala.map(_.id).toSet)

  /** `df`'s columns and their K-stratification. An uncached `df` is
    * scanned every time; a cached one is scanned and stratified once per
    * cache entry and K, since its contents stay fixed while it is cached.
    * A scan that fails is not remembered, so it fails again next time.
    */
  private def scan(df: DataFrame, k: Int): (IdColumns, Stratification) = {
    val d = castToImpl(df)
    d.sparkSession.sharedState.cacheManager.lookupCachedData(d) match {
      case None =>
        val t = IdColumns.collect(df)
        (t, Stratification(t.proxy, k))
      case Some(entry) =>
        val key = entry.cachedRepresentation.cacheBuilder.cachedColumnBuffers
        val m = scans.synchronized(Option(scans.get(key))).getOrElse {
          val m = new Scanned(IdColumns.collect(df))
          val sc = key.sparkContext
          listening.synchronized(if (listening.add(sc)) sc.addSparkListener(new SparkListener {
            override def onUnpersistRDD(e: SparkListenerUnpersistRDD): Unit =
              scans.synchronized(scans.keySet.removeIf(r => r.id == e.rddId && (r.sparkContext eq sc)))
          }))
          scans.synchronized(scans.put(key, m))
          m
        }
        (m.columns, m.strata.synchronized(m.strata.getOrElseUpdate(k, Stratification(m.columns.proxy, k))))
    }
  }
}
