package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.util.Random

/** Group-by dataset: G mutually exclusive groups (`group(i)` in 0..G-1,
  * or -1 for no group), one proxy score array per group.
  *
  * Construction rejects a proxy count other than G, a proxy or group column
  * of the wrong length, a group key outside -1..G-1, a non-finite proxy
  * value and a non-finite statistic on a group member.
  *
  * The proxy arrays must not be mutated: [[strata]] keeps the first
  * stratification it computes for each K.
  */
final case class GroupedRecords(
    groupNames: Vector[String],
    proxies: Vector[Array[Double]],
    group: Array[Int],
    stat: Array[Double],
) {
  def n: Int = stat.length
  def g: Int = groupNames.length

  require(proxies.length == g, s"${proxies.length} proxy columns for $g groups")
  require(group.length == n, s"group has ${group.length} values for $n records")
  for ((col, j) <- proxies.zipWithIndex) {
    require(col.length == n, s"proxy $j has ${col.length} values for $n records")
    for (i <- 0 until n)
      require(java.lang.Double.isFinite(col(i)), s"proxy $j has a non-finite value (${col(i)}) at record $i")
  }
  for (i <- 0 until n) {
    require(group(i) >= -1 && group(i) < g, s"group has key ${group(i)} at record $i, outside -1..${g - 1}")
    require(group(i) < 0 || java.lang.Double.isFinite(stat(i)),
      s"stat has a non-finite value (${stat(i)}) at record $i, a member of group ${group(i)}")
  }

  private val strataByK = new java.util.concurrent.ConcurrentHashMap[Int, Vector[Stratification]]()

  /** One stratification into `k` strata per group proxy, computed on the
    * first call for each `k`.
    */
  def strata(k: Int): Vector[Stratification] =
    strataByK.computeIfAbsent(k, k => proxies.map(Stratification(_, k)))

  /** Group g as a single-predicate table: its proxy, "is the record in
    * group g", and the statistic. The constructor's checks imply
    * [[LocalRecords]]'s, so building one cannot fail.
    */
  lazy val members: Vector[LocalRecords] =
    Vector.tabulate(g)(j => LocalRecords(proxies(j), group.map(_ == j), stat))

  /** Ground-truth per-group mean of the statistic. */
  lazy val truth: Vector[Double] = members.map(_.truth)
}

/** Generators for the paper's extension experiments (Figs. 6–8, 12):
  * multi-predicate queries, group-bys (single- and multi-oracle), and
  * multi-proxy combination. See DESIGN.md §3 for the substitutions.
  */
object ExtDatasets {

  import Datasets.{clamp01, sigmoidCol}

  // ---------------------------------------------------------------- multipred

  /** night-street with the paper's traffic query: `cars > 0 AND red_light`.
    * The combined positive rate is tuned to the paper's reported 0.17
    * (p_cars ≈ 0.25, p_red|independent ≈ 0.68).
    */
  def nightStreetMultiPred(spark: SparkSession, sf: Double = 1.0): DataFrame = {
    val p = Datasets.nightStreet
    val rows = math.max(100L, (p.size * sf).toLong)
    // The traffic query's own rates (decoupled from the single-pred
    // profile): p_cars = 0.25 and p_red = 0.68, independent, so the
    // conjunction hits the paper's reported combined rate of 0.17.
    val bCars = Datasets.calibrateIntercept(2.5, 0.25)
    val bRed = Datasets.calibrateIntercept(2.0, 0.68)
    val base = spark.range(rows)
      .withColumn("z", randn(p.seed))
      .withColumn("z2", randn(p.seed + 10))
    val sCars = sigmoidCol(lit(2.5) * col("z") + lit(bCars))
    val sRed = sigmoidCol(lit(2.0) * col("z2") + lit(bRed))
    base
      .withColumn("label_cars", rand(p.seed + 1) < sCars)
      .withColumn("proxy_cars", clamp01(sCars + lit(0.08) * randn(p.seed + 2)))
      .withColumn("label_red", rand(p.seed + 11) < sRed)
      .withColumn("proxy_red", clamp01(sRed + lit(0.12) * randn(p.seed + 12)))
      .withColumn("stat", Datasets.statCol(p.stat, col("z"), p.seed + 3))
      .select("id", "stat", "label_cars", "proxy_cars", "label_red", "proxy_red")
  }

  /** The paper's synthetic multi-predicate setting: five latent strata,
    * two predicates, per-stratum positive rates drawn from a Beta
    * distribution; each proxy reports its stratum's rate (plus noise).
    */
  def syntheticMultiPred(spark: SparkSession, rows: Long = 100_000L): DataFrame = {
    val seed = 7L
    val rng = new Random(seed)
    def betaDraw(): Double = { // Beta(2, 4) via Jöhnk's algorithm
      val a = 2.0; val b = 4.0
      var u = math.pow(rng.nextDouble(), 1.0 / a)
      var v = math.pow(rng.nextDouble(), 1.0 / b)
      while (u + v > 1.0) {
        u = math.pow(rng.nextDouble(), 1.0 / a)
        v = math.pow(rng.nextDouble(), 1.0 / b)
      }
      math.min(0.95, math.max(0.02, u / (u + v)))
    }
    val k = 5
    val p1 = Array.fill(k)(betaDraw())
    val p2 = Array.fill(k)(betaDraw())
    def rateCol(ps: Array[Double], stratum: Column): Column =
      element_at(array(ps.map(lit(_)): _*), stratum + 1)
    val base = spark.range(rows)
      .withColumn("stratum", (rand(seed) * k).cast("int"))
    val r1 = rateCol(p1, col("stratum"))
    val r2 = rateCol(p2, col("stratum"))
    base
      .withColumn("label_a", rand(seed + 1) < r1)
      .withColumn("proxy_a", clamp01(r1 + lit(0.05) * randn(seed + 2)))
      .withColumn("label_b", rand(seed + 3) < r2)
      .withColumn("proxy_b", clamp01(r2 + lit(0.05) * randn(seed + 4)))
      .withColumn("stat", lit(1.0) + lit(0.5) * col("stratum") + randn(seed + 5))
      .select("id", "stat", "label_a", "proxy_a", "label_b", "proxy_b")
  }

  // ----------------------------------------------------------------- groupby

  /** Mutually exclusive group membership from columns `theta_0..theta_{g-1}`:
    * with `c_j = theta_0 + … + theta_j` and one uniform `u = rand(seed)`,
    * the record joins the first j with `u < c_j`, or no group (-1).
    * `u` is materialized as a column: a raw `rand(…)` expression is
    * nondeterministic and would be re-drawn at every `when` branch.
    */
  private def assignGroups(df: DataFrame, g: Int, seed: Long): DataFrame = {
    val cums = (0 until g).map(j => (0 to j).map(i => col(s"theta_$i")).reduce(_ + _))
    df.withColumn("u", rand(seed)).withColumn("group",
      (0 until g).foldRight(lit(-1)) { (j, rest) => when(col("u") < cums(j), lit(j)).otherwise(rest) })
  }

  /** Shared group-by construction: per record, each group g gets a
    * membership probability `theta_g` with mean `rates(g)`; the record is
    * assigned to at most one group by a single categorical draw (groups
    * are mutually exclusive, as for a group-by key); `proxy_g = theta_g`.
    * The statistic is `N(g + 1, 1)` for members of group g (0-based), and
    * still defined, group-agnostically, as `N(0, 1)` for non-members.
    */
  def groupBy(spark: SparkSession, rows: Long, rates: Vector[Double], seed: Long): DataFrame = {
    require(rates.sum < 0.95, "group rates must leave room for non-members")
    val g = rates.length
    var df: DataFrame = spark.range(rows).toDF("id")
    // theta_g = rates(g)·4u³: mean rates(g) (E[4u³] = 1) with a wide
    // dynamic range (0×–4×), so proxy-quantile strata genuinely
    // concentrate members — the regime Figs. 7–8 exercise.
    for (j <- 0 until g) {
      // materialize u first — rand() is nondeterministic and would be
      // re-drawn per reference inside u·u·u
      df = df
        .withColumn(s"u_$j", rand(seed + j))
        .withColumn(s"theta_$j",
          lit(rates(j)) * lit(4.0) * col(s"u_$j") * col(s"u_$j") * col(s"u_$j"))
    }
    df = assignGroups(df, g, seed + 100)
    val mean = (col("group") + 1).cast("double") // group is 0-based
    df.withColumn("stat", when(col("group") >= 0, mean + randn(seed + 300)).otherwise(randn(seed + 300)))
      .select(Seq("id", "group", "stat").map(col) ++ (0 until g).map(j => col(s"theta_$j").as(s"proxy_$j")): _*)
  }

  /** celeba-like group-by: `GROUP BY hair_color ∈ {gray, blond}` with a
    * binary smiling statistic.
    *
    * Unlike the bounded-θ synthetic above, the per-group membership
    * probabilities here use the sigmoid-latent model of the main
    * profiles: a trained hair-color classifier (the paper's MobileNetV2
    * proxy) scores members near 1, so the top proxy stratum concentrates
    * most of a group even though the marginal rates are small (gray 4%,
    * blond 15%).
    */
  def celebaGroupBy(spark: SparkSession, sf: Double = 1.0): DataFrame = {
    val seed = 21L
    val rows = math.max(100L, (Datasets.celeba.size * sf).toLong)
    val rates = Vector(0.04, 0.15)
    val slope = 2.8
    var df: DataFrame = spark.range(rows).toDF("id")
    for (j <- rates.indices) {
      val b = Datasets.calibrateIntercept(slope, rates(j))
      df = df
        .withColumn(s"z_$j", randn(seed + j))
        .withColumn(s"theta_$j", sigmoidCol(lit(slope) * col(s"z_$j") + lit(b)))
        .withColumn(s"proxy_$j", clamp01(col(s"theta_$j") + lit(0.05) * randn(seed + 50 + j)))
    }
    df = assignGroups(df, rates.length, seed + 100)
    // Bernoulli(smiling), rate by group (gray 0.35, blond 0.55, none 0.45).
    val rate = when(col("group") === 0, 0.35).when(col("group") === 1, 0.55).otherwise(0.45)
    df.withColumn("stat", (rand(seed + 400) < rate).cast("double"))
      .select(Seq("id", "group", "stat") ++ rates.indices.map(j => s"proxy_$j") map col: _*)
  }

  /** Paper's synthetic group-by for the single-oracle setting: four
    * groups with positive rates 3.3%, 3.3%, 3.4%, 3.5%.
    */
  def syntheticGroupBySingle(spark: SparkSession, rows: Long = 200_000L): DataFrame =
    groupBy(spark, rows, Vector(0.033, 0.033, 0.034, 0.035), seed = 22)

  /** Paper's synthetic group-by for the multi-oracle setting: four
    * groups with positive rates 16%, 12%, 9%, 5%.
    */
  def syntheticGroupByMulti(spark: SparkSession, rows: Long = 200_000L): DataFrame =
    groupBy(spark, rows, Vector(0.16, 0.12, 0.09, 0.05), seed = 23)

  /** Collect a group-by DataFrame into [[GroupedRecords]]. */
  def collectGrouped(df: DataFrame, groupNames: Vector[String]): GroupedRecords = {
    val g = groupNames.length
    val rows = LocalRecords.collectById(df, Seq("group", "stat") ++ (0 until g).map(j => s"proxy_$j"))
    GroupedRecords(groupNames, Vector.tabulate(g)(j => rows.map(_.getDouble(3 + j))),
      rows.map(_.getInt(1)), rows.map(_.getDouble(2)))
  }

  // ------------------------------------------------------- proxy combination

  /** trec05p-like dataset: the `trec05p` profile's records with several
    * candidate keyword proxies of varying quality (τ ∈ {0.15, 0.35, 0.6})
    * plus one pure-noise proxy in place of its own proxy.
    * Schema: `(id, positive, stat, proxy_kw1..kw3, proxy_junk)`.
    */
  def trec05pMultiProxy(spark: SparkSession, sf: Double = 1.0): DataFrame = {
    val p = Datasets.trec05p
    val score = Datasets.scoreCol(p, col("z"))
    Datasets.generate(spark, p, sf)
      .withColumn("proxy_kw1", clamp01(score + lit(0.15) * randn(p.seed + 31)))
      .withColumn("proxy_kw2", clamp01(score + lit(0.35) * randn(p.seed + 32)))
      .withColumn("proxy_kw3", clamp01(score + lit(0.6) * randn(p.seed + 33)))
      .withColumn("proxy_junk", rand(p.seed + 34))
      .select("id", "positive", "stat", "proxy_kw1", "proxy_kw2", "proxy_kw3", "proxy_junk")
  }

  /** Paper's synthetic combination setting: `positive ~ Bernoulli(θ)`,
    * proxies are θ plus per-proxy noise.
    */
  def syntheticMultiProxy(spark: SparkSession, rows: Long = 100_000L): DataFrame = {
    val seed = 24L
    val theta = clamp01(lit(0.25) + lit(0.2) * randn(seed)) // mean ≈ .25 Bernoulli parameter
    spark.range(rows)
      .withColumn("theta", theta)
      .withColumn("positive", rand(seed + 1) < col("theta"))
      .withColumn("proxy_p1", clamp01(col("theta") + lit(0.05) * randn(seed + 41)))
      .withColumn("proxy_p2", clamp01(col("theta") + lit(0.25) * randn(seed + 42)))
      .withColumn("proxy_p3", rand(seed + 43))
      .withColumn("stat", lit(5.0) + lit(5.0) * col("theta") + randn(seed + 44))
      .select("id", "positive", "stat", "proxy_p1", "proxy_p2", "proxy_p3")
  }

  /** Collect `(positive, stat)` plus a set of named proxy columns. */
  def collectMultiProxy(df: DataFrame, proxyCols: Vector[String]): (Array[Boolean], Array[Double], Vector[Array[Double]]) = {
    val rows = LocalRecords.collectById(df, Seq("positive", "stat") ++ proxyCols)
    val proxies = proxyCols.indices.toVector.map(j => rows.map(_.getDouble(3 + j)))
    (rows.map(_.getBoolean(1)), rows.map(_.getDouble(2)), proxies)
  }
}
