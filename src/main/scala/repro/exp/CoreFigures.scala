package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.{Datasets, LocalRecords}
import repro.metrics.Metrics
import repro.sampling.Rng

/** Single-predicate evaluation artifacts: Figures 2, 3, 4, 5, 9, 10, 11.
  * Each `figN` returns typed per-condition rows; [[Figures]] states each
  * figure's trial count and table once.
  */
object CoreFigures {

  val PaperBudgets: Seq[Int] = Seq(2000, 4000, 6000, 8000, 10000)
  val LowBudgets: Seq[Int] = Seq(500, 750, 1000)
  val DefaultParams: AbaeParams = AbaeParams(k = 5, stage1Frac = 0.5)
  /** The budget of the lesion and sensitivity studies, Figs. 9–11. */
  val StudyBudget: Int = 10000

  // ------------------------------------------------------------ Fig 2 and 3

  /** One (dataset, budget) cell of the budget-vs-RMSE comparison. */
  final case class RmseCell(
      dataset: String,
      budget: Int,
      abaeRmse: Double,
      abaeStd: Double,
      unifRmse: Double,
      unifStd: Double,
  ) {
    def gain: Double = unifRmse / abaeRmse
  }

  /** The trials Figs. 2–4 and 6 summarize: per (dataset, budget b),
    * `nTrials` ABAE and uniform estimates, seeded from `abaeSeed · b` and
    * `unifSeed · b`, and the truth, reduced by `cell`. Strata are
    * memoized by dataset name.
    */
  def budgetSweep[C](
      datasets: Seq[(String, LocalRecords)],
      budgets: Seq[Int],
      nTrials: Int,
      abaeSeed: Long,
      unifSeed: Long,
  )(cell: (String, Int, Vector[Double], Vector[Double], Double) => C): Vector[C] =
    datasets.toVector.flatMap { case (name, rec) =>
      val strat = Harness.stratified(name, rec, DefaultParams.k)
      budgets.map { b =>
        cell(name, b, Harness.abaeEstimates(strat, b, nTrials, DefaultParams, abaeSeed * b),
          Harness.uniformEstimates(rec, b, nTrials, unifSeed * b), rec.truth)
      }
    }

  /** Figs. 2–4's datasets: each profile at the paper's size. */
  private def profileRecords(spark: SparkSession, profiles: Seq[Datasets.Profile]): Seq[(String, LocalRecords)] =
    profiles.map(p => p.name -> Harness.records(spark, p))

  def rmseSweep(
      spark: SparkSession,
      budgets: Seq[Int],
      nTrials: Int,
      profiles: Seq[Datasets.Profile] = Datasets.all,
  ): Vector[RmseCell] =
    budgetSweep(profileRecords(spark, profiles), budgets, nTrials, 1000L, 5000L) { (d, b, abae, unif, truth) =>
      val (ar, as) = Harness.rmseAndStd(abae, truth)
      val (ur, us) = Harness.rmseAndStd(unif, truth)
      RmseCell(d, b, ar, as, ur, us)
    }

  def fig2(spark: SparkSession, nTrials: Int): Vector[RmseCell] =
    rmseSweep(spark, PaperBudgets, nTrials)

  def fig3(spark: SparkSession, nTrials: Int): Vector[RmseCell] =
    rmseSweep(spark, LowBudgets, nTrials)

  // ------------------------------------------------------------------ Fig 4

  /** Normalized Q-error (100·(q−1)) per (dataset, budget). */
  final case class QErrorCell(
      dataset: String,
      budget: Int,
      abaeQ: Double,
      unifQ: Double,
  )

  def fig4(
      spark: SparkSession,
      nTrials: Int,
      profiles: Seq[Datasets.Profile] = Seq(Datasets.nightStreet, Datasets.amazonOffice),
  ): Vector[QErrorCell] =
    budgetSweep(profileRecords(spark, profiles), PaperBudgets, nTrials, 1000L, 5000L) { (d, b, abae, unif, truth) =>
      QErrorCell(d, b, Metrics.normalizedQError(abae, truth), Metrics.normalizedQError(unif, truth))
    }

  // ------------------------------------------------------------------ Fig 5

  /** CI width and empirical coverage per (dataset, budget). */
  final case class CiCell(
      dataset: String,
      budget: Int,
      abaeWidth: Double,
      abaeCoverage: Double,
      unifWidth: Double,
      unifCoverage: Double,
  )

  def fig5(
      spark: SparkSession,
      nTrials: Int,
      beta: Int,
      budgets: Seq[Int] = Seq(2000, 6000, 10000),
      profiles: Seq[Datasets.Profile] = Datasets.all,
  ): Vector[CiCell] =
    profiles.toVector.flatMap { p =>
      val rec = Harness.records(spark, p)
      val strat = Harness.stratified(p.name, rec, DefaultParams.k)
      val truth = rec.truth
      budgets.map { b =>
        var aw = 0.0; var ac = 0; var uw = 0.0; var uc = 0
        for (t <- 1 to nTrials) {
          val res = Abae.run(strat, new repro.data.CountingOracle(strat), b,
            DefaultParams, 17L * b + t)
          val ci = Bootstrap.ci(res.draws, beta, alpha = 0.05, Rng.stream(31L * b + t, 1))
          aw += ci.width; if (ci.contains(truth)) ac += 1
          val ur = UniformSampling.run(rec, b, 73L * b + t)
          val uci = Bootstrap.ci(Seq(ur.draws), beta, 0.05, Rng.stream(91L * b + t, 2))
          uw += uci.width; if (uci.contains(truth)) uc += 1
        }
        CiCell(p.name, b, aw / nTrials, ac.toDouble / nTrials, uw / nTrials, uc.toDouble / nTrials)
      }
    }

  // ------------------------------------------------------------ Figs 9-11

  /** The trials Figs. 9–11 summarize: per dataset, the uniform RMSE at
    * [[StudyBudget]] from seed base `unifSeed`, and the ABAE RMSE of each
    * `(params, seed base)` in `variants`, in order. Strata are memoized by
    * (dataset, K).
    */
  private def studyRmse(
      spark: SparkSession,
      nTrials: Int,
      unifSeed: Long,
      variants: Seq[(AbaeParams, Long)],
  ): Vector[(String, Double, Vector[Double])] =
    Datasets.all.toVector.map { p =>
      val rec = Harness.records(spark, p)
      val truth = rec.truth
      val unif = Metrics.rmse(Harness.uniformEstimates(rec, StudyBudget, nTrials, unifSeed), truth)
      val abae = variants.toVector.map { case (params, seed) =>
        val strat = Harness.stratified(p.name, rec, params.k)
        Metrics.rmse(Harness.abaeEstimates(strat, StudyBudget, nTrials, params, seed), truth)
      }
      (p.name, unif, abae)
    }

  /** Lesion study at budget 10,000: full ABAE, ABAE without sample reuse,
    * uniform sampling.
    */
  final case class LesionCell(
      dataset: String,
      abaeRmse: Double,
      noReuseRmse: Double,
      unifRmse: Double,
  )

  def fig9(spark: SparkSession, nTrials: Int): Vector[LesionCell] =
    studyRmse(spark, nTrials, 333L, Seq(DefaultParams -> 111L, DefaultParams.copy(reuse = false) -> 222L)).map {
      case (d, unif, abae) => LesionCell(d, abae(0), abae(1), unif)
    }

  /** Sensitivity to the number of strata K (uniform baseline alongside). */
  final case class KCell(dataset: String, k: Int, abaeRmse: Double, unifRmse: Double)

  def fig10(spark: SparkSession, nTrials: Int): Vector[KCell] = {
    val ks = 2 to 10
    studyRmse(spark, nTrials, 444L, ks.map(k => AbaeParams(k = k) -> (555L + k))).flatMap {
      case (d, unif, abae) => ks.zip(abae).map { case (k, a) => KCell(d, k, a, unif) }
    }
  }

  /** Sensitivity to the Stage-1 budget fraction C. */
  final case class CCell(dataset: String, c: Double, abaeRmse: Double, unifRmse: Double)

  def fig11(spark: SparkSession, nTrials: Int): Vector[CCell] = {
    val cs = Seq(0.1, 0.3, 0.5, 0.7, 0.9)
    studyRmse(spark, nTrials, 666L, cs.map(c => AbaeParams(k = 5, stage1Frac = c) -> (777L + (c * 10).toInt))).flatMap {
      case (d, unif, abae) => cs.zip(abae).map { case (c, a) => CCell(d, c, a, unif) }
    }
  }
}
