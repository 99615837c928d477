package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic stand-ins for the paper's six evaluation datasets (Table 2).
  *
  * The real datasets require Mask R-CNN / MobileNetV2 / BERT inference,
  * human labels, and scraped corpora — unavailable offline. Per the
  * substitution rule we generate data that preserves the quantities
  * driving ABAE's behaviour: dataset size, predicate positive rate `p`,
  * the statistic's distribution among positives (including per-stratum
  * variance spread), and proxy quality.
  *
  * Generative model (per record, all Spark column expressions, seeded):
  * {{{
  *   z        ~ N(0, 1)                       // latent difficulty
  *   score    = sigmoid(slope·z + b)          // true P(positive)
  *   positive = 1{ u < score },  u ~ U(0,1)
  *   proxy    = clamp01(score + τ·ε), ε ~ N(0,1)   // τ = proxy noise
  *   stat     = family-specific draw, correlated with z
  * }}}
  * `b` is calibrated on the driver so `E[score] = targetP`. Larger `τ`
  * means a weaker proxy (less concentration of positives in top strata);
  * `zCoef` in the stat families makes σ_k vary across strata, which is
  * what the √p̂_k·σ̂_k allocation exploits beyond pure positive-rate
  * stratification.
  */
object Datasets {

  /** How the aggregated statistic is generated. */
  sealed trait StatFamily

  /** Count-valued statistic `1 + ⌊Exp(scale·e^{zCoef·z})⌋` — e.g. number
    * of cars in a frame given at least one car, or links in an email.
    */
  final case class CountStat(scale: Double, zCoef: Double) extends StatFamily

  /** Binary statistic `1{u < sigmoid(logit(base) + zCoef·z)}` — e.g.
    * is_smiling for the celeba PERCENTAGE query.
    */
  final case class BernoulliStat(base: Double, zCoef: Double) extends StatFamily

  /** Integer rating clamped to [1, 5] — Amazon review/poster ratings. */
  final case class RatingStat(center: Double, zCoef: Double, noise: Double) extends StatFamily

  /** Full description of one synthetic dataset. */
  final case class Profile(
      name: String,
      size: Long,
      targetP: Double,
      slope: Double,
      proxyNoise: Double,
      stat: StatFamily,
      seed: Long,
  )

  /** The six stand-ins; `p` and proxy strength per DESIGN.md §3.
    * Positive rates follow the real predicates' selectivity: night-street
    * frames with a car are rare (~12%), the trec05p SPAM25 subset is 25%
    * spam, "strongly positive" office reviews ~20%.
    */
  val nightStreet: Profile =
    Profile("night-street", 973_136L, 0.12, 4.0, 0.03, CountStat(1.8, 0.35), 101)
  val taipei: Profile =
    Profile("taipei", 1_187_850L, 0.40, 2.2, 0.12, CountStat(2.5, 0.30), 102)
  val celeba: Profile =
    Profile("celeba", 202_599L, 0.15, 2.8, 0.10, BernoulliStat(0.48, 0.25), 103)
  val amazonPosters: Profile =
    Profile("amazon-posters", 35_815L, 0.35, 2.0, 0.15, RatingStat(3.6, 0.30, 0.9), 104)
  val trec05p: Profile =
    Profile("trec05p", 52_578L, 0.25, 1.8, 0.25, CountStat(3.0, 0.45), 105)
  val amazonOffice: Profile =
    Profile("amazon-office", 800_144L, 0.20, 1.8, 0.22, RatingStat(4.1, 0.25, 0.7), 106)

  val all: Seq[Profile] =
    Seq(nightStreet, taipei, celeba, amazonPosters, trec05p, amazonOffice)

  def byName(name: String): Profile =
    all.find(_.name == name).getOrElse(sys.error(s"unknown dataset profile: $name"))

  /** Solve `E_{z~N(0,1)}[sigmoid(slope·z + b)] = targetP` for `b` by
    * bisection over a fixed normal quadrature grid.
    */
  def calibrateIntercept(slope: Double, targetP: Double): Double = {
    val grid = (-800 to 800).map(_ / 100.0)
    val w = grid.map(z => math.exp(-z * z / 2))
    val wSum = w.sum
    def meanScore(b: Double): Double =
      grid.indices.map(i => w(i) / (1.0 + math.exp(-(slope * grid(i) + b)))).sum / wSum
    var lo = -30.0; var hi = 30.0
    var it = 0
    while (it < 200) {
      val mid = (lo + hi) / 2
      if (meanScore(mid) < targetP) lo = mid else hi = mid
      it += 1
    }
    (lo + hi) / 2
  }

  private[data] def sigmoidCol(c: Column): Column = lit(1.0) / (lit(1.0) + exp(-c))

  private[data] def clamp01(c: Column): Column = least(lit(1.0), greatest(lit(0.0), c))

  /** `sigmoid(slope·z + b)`: a record's true P(positive) given its latent `z`. */
  private[data] def scoreCol(profile: Profile, z: Column): Column =
    sigmoidCol(lit(profile.slope) * z + lit(calibrateIntercept(profile.slope, profile.targetP)))

  /** Statistic column for a family, given the latent `z` and a seed base. */
  private[data] def statCol(fam: StatFamily, z: Column, seed: Long): Column = fam match {
    case CountStat(scale, zc) =>
      // 1 + floor(Exp(mean = scale·e^{zc·z})) via inverse CDF.
      (lit(1.0) + floor(-log(rand(seed) + lit(1e-12)) * lit(scale) * exp(lit(zc) * z)))
        .cast("double")
    case BernoulliStat(base, zc) =>
      val logitBase = math.log(base / (1.0 - base))
      (rand(seed) < sigmoidCol(lit(logitBase) + lit(zc) * z)).cast("double")
    case RatingStat(center, zc, noise) =>
      least(lit(5.0), greatest(lit(1.0),
        round(lit(center) + lit(zc) * z + lit(noise) * randn(seed + 1), 0))).cast("double")
  }

  /** Generate a profile as a DataFrame `(id, z, proxy, positive, stat)`.
    *
    * @param sf scale factor on the profile's row count (1.0 = paper size);
    *           unit tests use ~0.02, benches 1.0.
    */
  def generate(spark: SparkSession, profile: Profile, sf: Double = 1.0): DataFrame = {
    val rows = math.max(100L, (profile.size * sf).toLong)
    val base = spark.range(rows).withColumn("z", randn(profile.seed))
    val score = scoreCol(profile, col("z"))
    base
      .withColumn("positive", rand(profile.seed + 1) < score)
      .withColumn("proxy", clamp01(score + lit(profile.proxyNoise) * randn(profile.seed + 2)))
      .withColumn("stat", statCol(profile.stat, col("z"), profile.seed + 3))
      .select("id", "z", "proxy", "positive", "stat")
  }

  /** Generate and collect to the driver (see [[LocalRecords]]). */
  def local(spark: SparkSession, profile: Profile, sf: Double = 1.0): LocalRecords =
    LocalRecords.fromDf(generate(spark, profile, sf))
}
