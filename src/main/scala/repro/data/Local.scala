package repro.data

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
    * generated DataFrame (see [[collectById]]).
    */
  def fromDf(df: DataFrame): LocalRecords = {
    val rows = collectById(df, Seq("proxy", "positive", "stat"))
    LocalRecords(rows.map(_.getDouble(1)), rows.map(_.getBoolean(2)), rows.map(_.getDouble(3)))
  }

  /** Rows of `(id +: cols)` sorted on `id`, so a (dataset, seed) pair
    * always yields the same arrays; column `cols(j)` is field `j + 1`.
    */
  private[data] def collectById(df: DataFrame, cols: Seq[String]): Array[Row] =
    df.select(("id" +: cols).map(col): _*).orderBy("id").collect()
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
  * [[StratifiedLocal.ntileSizes]]. Proxies compare as
  * `java.lang.Double.compare` does (−0.0 < 0.0, every NaN above +∞ and
  * equal to every other NaN), ties by index.
  */
final class Stratification private (order: Array[Int], offsets: Array[Int]) {
  def k: Int = offsets.length - 1
  def size(s: Int): Int = offsets(s + 1) - offsets(s)

  /** The `j`-th record of stratum `s`, in proxy order. */
  def record(s: Int, j: Int): Int = order(offsets(s) + j)

  /** The records of stratum `s`, in proxy order (a fresh array). */
  def indices(s: Int): Array[Int] = java.util.Arrays.copyOfRange(order, offsets(s), offsets(s + 1))

  /** Stratum of each record. */
  lazy val stratumOf: Array[Int] = {
    val m = new Array[Int](order.length)
    var s = 0
    while (s < k) {
      var j = offsets(s)
      while (j < offsets(s + 1)) { m(order(j)) = s; j += 1 }
      s += 1
    }
    m
  }
}

object Stratification {
  def apply(proxy: Array[Double], k: Int): Stratification = {
    val offsets = StratifiedLocal.ntileSizes(proxy.length, k).scanLeft(0)(_ + _)
    new Stratification(sortedOrder(proxy), offsets)
  }

  /** Indices of `proxy` sorted by (proxy, index): a stable LSD radix sort,
    * one byte per pass, of keys whose unsigned order is
    * `java.lang.Double.compare`'s. A pass whose byte is the same for every
    * key is skipped.
    */
  private def sortedOrder(proxy: Array[Double]): Array[Int] = {
    val n = proxy.length
    var keys = new Array[Long](n)
    var idx = Array.range(0, n)
    val counts = new Array[Int](8 * 256)
    var i = 0
    while (i < n) {
      // doubleToLongBits maps every NaN to one canonical value; flipping
      // all bits of negatives and the sign bit of the rest orders the
      // keys as unsigned longs.
      val bits = java.lang.Double.doubleToLongBits(proxy(i))
      val key = bits ^ ((bits >> 63) | Long.MinValue)
      keys(i) = key
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
  * each `query(i)` charges one call, repeats included, and returns
  * `reveal(i)`. A predicate reveals `(matches, statistic)`; a group key
  * reveals `(group key in 0..G-1 or -1, statistic)`. There is no label
  * cache: callers keep the labels they need again.
  */
class Oracle[L](reveal: Int => L) {
  private var invocations: Long = 0L
  def calls: Long = invocations
  def query(i: Int): L = { invocations += 1; reveal(i) }
}

/** [[Oracle]] over the whole record array, revealing (matches, statistic).
  * An adapter that counts nothing itself, kept because perfbench builds it.
  */
final class FlatOracle(records: LocalRecords)
    extends Oracle[(Boolean, Double)](i => (records.positive(i), records.stat(i)))

/** One [[Oracle]] per stratum: `query(k, i)` evaluates the predicate (and
  * reveals the statistic) for record `i` of stratum `k`, and `calls` is
  * their sum. An adapter that counts nothing itself, kept because perfbench
  * builds it and passes it to `Abae.run(data, oracle, …)`.
  */
final class CountingOracle(data: StratifiedLocal) {
  private val strata = data.strata.map(s => new Oracle(i => (s.positive(i), s.stat(i))))
  def calls: Long = strata.map(_.calls).sum
  def query(k: Int, i: Int): (Boolean, Double) = strata(k).query(i)
}
