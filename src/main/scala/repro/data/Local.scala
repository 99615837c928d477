package repro.data

import scala.collection.mutable.ArrayBuilder
import repro.core.StratumDraws
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col

/** Driver-side view of a dataset: per-record proxy score, hidden
  * predicate label, and hidden statistic value.
  *
  * The paper's evaluation (like the authors' released code) runs its
  * Monte-Carlo trial loops over precomputed (proxy, oracle, statistic)
  * triples — the modeled cost is *oracle calls*, not dataflow.
  * Spark generates and stratifies the data; the trial loops run here.
  * Algorithms must not read `positive`/`stat` directly — they go through
  * an [[Oracle]] so every label observation is charged.
  *
  * Construction rejects columns of different lengths, a non-finite proxy
  * value and a non-finite statistic on a positive record.
  */
final case class LocalRecords(
    proxy: Array[Double],
    positive: Array[Boolean],
    stat: Array[Double],
) {
  require(proxy.length == positive.length && proxy.length == stat.length,
    "column length mismatch")
  for (i <- proxy.indices) {
    require(java.lang.Double.isFinite(proxy(i)), s"proxy has a non-finite value (${proxy(i)}) at record $i")
    require(!positive(i) || java.lang.Double.isFinite(stat(i)),
      s"stat has a non-finite value (${stat(i)}) at record $i, a positive record")
  }

  def n: Int = proxy.length

  /** Ground truth μ = AVG(stat) over records satisfying the predicate. */
  lazy val truth: Double = {
    var s = 0.0; var c = 0
    var i = 0
    while (i < n) { if (positive(i)) { s += stat(i); c += 1 }; i += 1 }
    if (c == 0) 0.0 else s / c
  }

  /** Overall predicate positive rate. */
  lazy val positiveRate: Double = {
    var c = 0; var i = 0
    while (i < n) { if (positive(i)) c += 1; i += 1 }
    c.toDouble / n
  }
}

object LocalRecords {
  /** Collect the canonical `(proxy, positive, stat)` columns of a
    * generated DataFrame in id order (see [[IdColumns.collect]]).
    */
  def fromDf(df: DataFrame): LocalRecords = {
    val c = IdColumns.collect(df)
    LocalRecords(c.proxy, c.positive, c.stat)
  }

  /** Rows of `(id +: cols)` sorted on `id`, so a (dataset, seed) pair
    * always yields the same arrays; column `cols(j)` is field `j + 1`.
    * Rejects a repeated id, as [[IdColumns.collect]] does.
    */
  private[data] def collectById(df: DataFrame, cols: Seq[String]): Array[Row] = {
    val rows = df.select(("id" +: cols).map(col): _*).collect()
    IdColumns.idOrder(rows.map(_.getLong(0))).fold(rows)(_.map(rows))
  }
}

/** A dataset's `(id, proxy, positive, stat)` columns on the driver, in
  * ascending id order: what both engines read of a DataFrame. It holds
  * 25 bytes per row and checks no values; [[LocalRecords]] does that for
  * the local engine.
  */
final case class IdColumns(id: Array[Long], proxy: Array[Double], positive: Array[Boolean], stat: Array[Double])

object IdColumns {
  /** One Spark job: each partition fills primitive arrays, and the driver
    * joins them and puts them in id order. Rejects a null, and a repeated
    * id, naming the id. What it allocates on the way (partition buffers,
    * task-result serialization, the join) is part of the per-query figure
    * in [[repro.core.AbaeSpark]]'s Memory paragraph.
    */
  def collect(df: DataFrame): IdColumns = {
    val parts = df.select(col("id").cast("long"), col("proxy").cast("double"),
        col("positive").cast("boolean"), col("stat").cast("double"))
      .queryExecution.toRdd.mapPartitions { rows =>
        val (id, proxy, positive, stat) =
          (new ArrayBuilder.ofLong, new ArrayBuilder.ofDouble, new ArrayBuilder.ofBoolean, new ArrayBuilder.ofDouble)
        rows.foreach { r =>
          require(!r.anyNull, s"a null in (id, proxy, positive, stat) at id ${if (r.isNullAt(0)) "null" else r.getLong(0)}")
          id += r.getLong(0); proxy += r.getDouble(1); positive += r.getBoolean(2); stat += r.getDouble(3)
        }
        Iterator.single(IdColumns(id.result(), proxy.result(), positive.result(), stat.result()))
      }.collect()
    val c = IdColumns(Array.concat(parts.map(_.id): _*), Array.concat(parts.map(_.proxy): _*),
      Array.concat(parts.map(_.positive): _*), Array.concat(parts.map(_.stat): _*))
    idOrder(c.id).fold(c)(o => IdColumns(o.map(c.id), o.map(c.proxy), o.map(c.positive), o.map(c.stat)))
  }

  /** The order that sorts `id`, or `None` when one pass finds it already
    * ascending (every generated table). Rejects a repeated id, naming it.
    */
  private[data] def idOrder(id: Array[Long]): Option[Array[Int]] = {
    var i = 1
    while (i < id.length && id(i - 1) < id(i)) i += 1
    if (i >= id.length) None
    else {
      // Flipping the sign bit orders signed ids as the radix sort's
      // unsigned keys.
      val order = Stratification.sortedOrder(id.map(_ ^ Long.MinValue))
      for (j <- 1 until order.length)
        require(id(order(j - 1)) != id(order(j)), s"id ${id(order(j))} appears more than once")
      Some(order)
    }
  }
}

/** One stratum's population with hidden labels. */
final case class StratumRecords(positive: Array[Boolean], stat: Array[Double]) {
  def n: Int = positive.length

  /** Population p_k — for ground truth / theory tests only. */
  lazy val truthP: Double = {
    var c = 0; var i = 0
    while (i < n) { if (positive(i)) c += 1; i += 1 }
    if (n == 0) 0.0 else c.toDouble / n
  }

  /** Population μ_k over positives — for ground truth / theory tests only. */
  lazy val truthMu: Double = {
    var s = 0.0; var c = 0; var i = 0
    while (i < n) { if (positive(i)) { s += stat(i); c += 1 }; i += 1 }
    if (c == 0) 0.0 else s / c
  }

  /** Population σ_k over positives — for ground truth / theory tests only. */
  lazy val truthSigma: Double = {
    var s = 0.0; var s2 = 0.0; var c = 0; var i = 0
    while (i < n) { if (positive(i)) { s += stat(i); s2 += stat(i) * stat(i); c += 1 }; i += 1 }
    if (c == 0) 0.0 else math.sqrt(math.max(0.0, s2 / c - (s / c) * (s / c)))
  }
}

/** Proxy-quantile stratification of a [[LocalRecords]] into K strata,
  * mirroring Spark's `ntile(K) OVER (ORDER BY proxy, id)` exactly
  * (tested against it): records sorted by (proxy, index), the first
  * `n mod K` strata get `⌈n/K⌉` records, the rest `⌊n/K⌋`.
  */
final case class StratifiedLocal(strata: Vector[StratumRecords]) {
  def k: Int = strata.length
  def sizes: Vector[Int] = strata.map(_.n)

  /** Ground truth μ_all = Σ p_k μ_k / Σ p_k (equals the global positive
    * mean up to stratum-size rounding, which ntile keeps within 1).
    */
  lazy val truth: Double = {
    val pAll = strata.map(_.truthP).sum
    if (pAll == 0) 0.0 else strata.map(s => s.truthP * s.truthMu).sum / pAll
  }
}

object StratifiedLocal {
  /** ntile bucket sizes: first (n mod k) buckets get one extra record. */
  def ntileSizes(n: Int, k: Int): Array[Int] = {
    val base = n / k
    val rem = n % k
    Array.tabulate(k)(i => if (i < rem) base + 1 else base)
  }

  /** Record indices per stratum under ntile-by-(proxy, index) order. */
  def ntileIndices(proxy: Array[Double], k: Int): Array[Array[Int]] = {
    val strat = Stratification(proxy, k)
    Array.tabulate(k)(strat.indices)
  }

  def apply(records: LocalRecords, k: Int): StratifiedLocal = {
    val strat = Stratification(records.proxy, k)
    StratifiedLocal(Vector.tabulate(k) { s =>
      val ids = strat.indices(s)
      StratumRecords(ids.map(records.positive), ids.map(records.stat))
    })
  }
}

/** The ntile split of record indices `0 until n` into K strata by proxy
  * score: `order` lists the records sorted by (proxy, index), and stratum
  * `s` is `order(offsets(s) until offsets(s + 1))`, sized by
  * [[StratifiedLocal.ntileSizes]]. Proxies compare as Spark SQL orders
  * doubles (−0.0 equal to 0.0, every NaN above +∞ and equal to every other
  * NaN), ties by index.
  */
final class Stratification private (order: Array[Int], offsets: Array[Int]) {
  def k: Int = offsets.length - 1
  def size(s: Int): Int = offsets(s + 1) - offsets(s)

  /** The `j`-th record of stratum `s`, in proxy order. */
  def record(s: Int, j: Int): Int = order(offsets(s) + j)

  /** The records of stratum `s`, in proxy order (a fresh array). */
  def indices(s: Int): Array[Int] = java.util.Arrays.copyOfRange(order, offsets(s), offsets(s + 1))

  /** Stratum of each record. */
  lazy val stratumOf: Array[Int] = Stratification.stratumOf(order, offsets)
}

object Stratification {
  /** Stratum of each record, for strata `order(offsets(s) until offsets(s + 1))`.
    * A plain method rather than the lazy initializer's body: written
    * there, the loop took ~1.2 ms per call on 52,578 records for its first
    * ~200 calls, against ~0.1 ms here.
    */
  private[data] def stratumOf(order: Array[Int], offsets: Array[Int]): Array[Int] = {
    val m = new Array[Int](order.length)
    var s = 0
    while (s < offsets.length - 1) {
      var j = offsets(s)
      while (j < offsets(s + 1)) { m(order(j)) = s; j += 1 }
      s += 1
    }
    m
  }

  def apply(proxy: Array[Double], k: Int): Stratification = {
    val offsets = StratifiedLocal.ntileSizes(proxy.length, k).scanLeft(0)(_ + _)
    val keys = new Array[Long](proxy.length)
    var i = 0
    while (i < keys.length) {
      // Adding 0.0 folds −0.0 into 0.0; doubleToLongBits maps every NaN
      // to one canonical value; flipping all bits of negatives and the sign
      // bit of the rest orders the keys as unsigned longs.
      val bits = java.lang.Double.doubleToLongBits(proxy(i) + 0.0)
      keys(i) = bits ^ ((bits >> 63) | Long.MinValue)
      i += 1
    }
    new Stratification(sortedOrder(keys), offsets)
  }

  /** Indices of `keys` sorted by (unsigned key, index): a stable LSD radix
    * sort, one byte per pass. A pass whose byte is the same for every key
    * is skipped. `keys` is used as scratch space.
    */
  private[repro] def sortedOrder(keys0: Array[Long]): Array[Int] = {
    val n = keys0.length
    var keys = keys0
    var idx = Array.range(0, n)
    val counts = new Array[Int](8 * 256)
    var i = 0
    while (i < n) {
      val key = keys(i)
      var d = 0
      while (d < 8) { counts(d * 256 + ((key >>> (8 * d)) & 0xff).toInt) += 1; d += 1 }
      i += 1
    }
    var keysTo = new Array[Long](n)
    var idxTo = new Array[Int](n)
    var d = 0
    while (d < 8) {
      val base = d * 256
      val shift = 8 * d
      if (n > 0 && counts(base + ((keys(0) >>> shift) & 0xff).toInt) != n) {
        var sum = 0
        var b = 0
        while (b < 256) { val c = counts(base + b); counts(base + b) = sum; sum += c; b += 1 }
        i = 0
        while (i < n) {
          val slot = base + ((keys(i) >>> shift) & 0xff).toInt
          val to = counts(slot)
          counts(slot) = to + 1
          keysTo(to) = keys(i)
          idxTo(to) = idx(i)
          i += 1
        }
        val k = keys; keys = keysTo; keysTo = k
        val x = idx; idx = idxTo; idxTo = x
      }
      d += 1
    }
    idx
  }
}

/** The metered oracle, the program's only count of the paper's cost unit:
  * each label charges one call, repeats included. A predicate reveals
  * `(matches, statistic)`; a group key reveals `(group key in 0..G-1 or
  * -1, statistic)`. There is no label cache: callers keep the labels they
  * need again.
  *
  * The kernels label through the batch calls of [[PredicateOracle]] and
  * [[KeyOracle]], which read the hidden columns in one loop.
  */
class Oracle[L](reveal: Int => L) {
  private var invocations: Long = 0L
  def calls: Long = invocations

  /** One label, one call, through `reveal`. A per-call adapter that serves
    * only perfbench's traced run, which wraps it to time each call.
    */
  def query(i: Int): L = { invocations += 1; reveal(i) }

  /** Charge a batch of `n` calls. */
  protected final def charge(n: Int): Unit = invocations += n
}

/** A predicate oracle over hidden columns: record `r` reveals
  * `(positive(r), stat(r))`.
  */
class PredicateOracle(positive: Array[Boolean], stat: Array[Double])
    extends Oracle[(Boolean, Double)](r => (positive(r), stat(r))) {

  /** Label the records `idx` in order, one call each. */
  def label(idx: Array[Int]): StratumDraws = label(null, 0, idx)

  /** Label positions `idx` of stratum `s` of `strat` in order, one call
    * each: position `j` is record `strat.record(s, j)`.
    */
  def label(strat: Stratification, s: Int, idx: Array[Int]): StratumDraws = {
    charge(idx.length)
    val flags = new Array[Boolean](idx.length)
    val stats = new Array[Double](idx.length)
    var i = 0
    while (i < idx.length) {
      val r = if (strat eq null) idx(i) else strat.record(s, idx(i))
      flags(i) = positive(r)
      stats(i) = stat(r)
      i += 1
    }
    StratumDraws(flags, stats)
  }
}

/** A group-key oracle over hidden columns: record `r` reveals
  * `(key(r), stat(r))`.
  */
final class KeyOracle(key: Array[Int], stat: Array[Double]) extends Oracle[(Int, Double)](r => (key(r), stat(r))) {
  /** Label the records `idx` in order, one call each, into `keys` and
    * `stats` from position `at`.
    */
  def label(idx: Array[Int], keys: Array[Int], stats: Array[Double], at: Int): Unit = {
    charge(idx.length)
    var i = 0
    while (i < idx.length) {
      keys(at + i) = key(idx(i))
      stats(at + i) = stat(idx(i))
      i += 1
    }
  }
}

/** [[PredicateOracle]] over the whole record array. An adapter kept because
  * perfbench's traced run builds it and wraps its `query`.
  */
final class FlatOracle(records: LocalRecords) extends PredicateOracle(records.positive, records.stat)

/** One [[PredicateOracle]] per stratum, and `calls` is their sum. An
  * adapter that counts nothing itself, kept because perfbench builds it
  * and passes it to `Abae.run(data, oracle, …)`.
  */
final class CountingOracle(data: StratifiedLocal) {
  private val strata = data.strata.map(s => new PredicateOracle(s.positive, s.stat))
  def calls: Long = strata.map(_.calls).sum

  /** Record `i` of stratum `k`, one call. A per-call adapter that serves
    * only perfbench's traced run.
    */
  def query(k: Int, i: Int): (Boolean, Double) = strata(k).query(i)

  /** Label records `idx` of stratum `k` in order, one call each. */
  def label(k: Int, idx: Array[Int]): StratumDraws = strata(k).label(idx)
}
