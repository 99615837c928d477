package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data._
import repro.metrics.Metrics

/** Extension evaluation artifacts: Figures 6 (MultiPred), 7–8 (GroupBy),
  * 12 (proxy combination).
  */
object ExtFigures {

  import CoreFigures.DefaultParams

  // ------------------------------------------------------------------ Fig 6

  final case class MultiPredCell(
      query: String,
      budget: Int,
      abaeRmse: Double,
      unifRmse: Double,
  )

  /** The two Fig-6 queries lowered to single-predicate records:
    * night-street `cars AND red_light`, and the Beta-rates synthetic.
    */
  private def multiPredDatasets(spark: SparkSession): Vector[(String, LocalRecords)] = {
    def lowered(name: String, df: => DataFrame, a: String, b: String): (String, LocalRecords) =
      name -> Harness.memo("multipred", name)(LocalRecords.fromDf(MultiPred.lower(And(Pred(a), Pred(b)), df)))
    Vector(
      lowered("night-street(cars&red)", ExtDatasets.nightStreetMultiPred(spark), "cars", "red"),
      lowered("synthetic(2-pred)", ExtDatasets.syntheticMultiPred(spark), "a", "b"))
  }

  def fig6(spark: SparkSession, nTrials: Int): Vector[MultiPredCell] =
    CoreFigures.budgetSweep(multiPredDatasets(spark), CoreFigures.PaperBudgets, nTrials, 10L, 20L) {
      (query, b, abae, unif, truth) => MultiPredCell(query, b, Metrics.rmse(abae, truth), Metrics.rmse(unif, truth))
    }

  // -------------------------------------------------------------- Figs 7 & 8

  final case class GroupByCell(
      query: String,
      budgetPerGroup: Int,
      abaeMaxRmse: Double,
      unifMaxRmse: Double,
  )

  private def groupByDataset(spark: SparkSession, key: String): GroupedRecords =
    Harness.memo("groupby", key) {
      key match {
        case "celeba(hair)" =>
          ExtDatasets.collectGrouped(ExtDatasets.celebaGroupBy(spark), Vector("gray", "blond"))
        case "synthetic(3.3-3.5%)" =>
          ExtDatasets.collectGrouped(ExtDatasets.syntheticGroupBySingle(spark), Vector("g1", "g2", "g3", "g4"))
        case "synthetic(16/12/9/5%)" =>
          ExtDatasets.collectGrouped(ExtDatasets.syntheticGroupByMulti(spark), Vector("g1", "g2", "g3", "g4"))
      }
    }

  /** Per (dataset, budget/group): the max over groups of the RMSE of
    * `nTrials` ABAE and uniform runs, `run(rec, budget, t)` being trial t.
    */
  private def groupByCells(
      spark: SparkSession,
      nTrials: Int,
      keys: Vector[String],
      budgetsPerGroup: Seq[Int],
  )(
      abae: (GroupedRecords, Int, Int) => GroupBy.GroupByResult,
      unif: (GroupedRecords, Int, Int) => GroupBy.GroupByResult,
  ): Vector[GroupByCell] =
    keys.flatMap { key =>
      val rec = groupByDataset(spark, key)
      budgetsPerGroup.map { bpg =>
        def maxRmse(run: (GroupedRecords, Int, Int) => GroupBy.GroupByResult): Double = {
          val runs = (1 to nTrials).map(t => run(rec, bpg * rec.g, t).estimates)
          rec.truth.indices.map(g => Metrics.rmse(runs.map(_(g)), rec.truth(g))).max
        }
        GroupByCell(key, bpg, maxRmse(abae), maxRmse(unif))
      }
    }

  /** Fig 7: single-oracle group-by, max-RMSE vs budget normalized by the
    * number of groups.
    */
  def fig7(
      spark: SparkSession,
      nTrials: Int,
      budgetsPerGroup: Seq[Int] = Seq(500, 1000, 1500, 2000),
  ): Vector[GroupByCell] =
    groupByCells(spark, nTrials, Vector("celeba(hair)", "synthetic(3.3-3.5%)"), budgetsPerGroup)(
      (rec, budget, t) =>
        GroupBy.runSingleOracle(rec, budget, GroupBy.GroupByParams(k = 5), 40L * budget + t),
      (rec, budget, t) => GroupBy.uniformSingleOracle(rec, budget, 50L * budget + t))

  /** Fig 8: multi-oracle group-by, max-RMSE vs budget normalized by the
    * number of groups. K follows the paper's rule (§3.1): maximal such
    * that every stratum receives ≥100 Stage-1 samples — each group's
    * pilot here is only its own `bpg·C` draws, so small budgets use
    * fewer strata.
    */
  def fig8(
      spark: SparkSession,
      nTrials: Int,
      budgetsPerGroup: Seq[Int] = Seq(500, 1000, 1500, 2000),
  ): Vector[GroupByCell] =
    groupByCells(spark, nTrials, Vector("celeba(hair)", "synthetic(16/12/9/5%)"), budgetsPerGroup)(
      { (rec, budget, t) =>
        val k = math.min(5, math.max(2, (budget / rec.g * 0.5 / 100).toInt))
        GroupBy.runMultiOracle(rec, budget, GroupBy.GroupByParams(k = k), 60L * budget + t)
      },
      (rec, budget, t) => GroupBy.uniformMultiOracle(rec, budget, 70L * budget + t))

  // ----------------------------------------------------------------- Fig 12

  final case class CombineCell(
      dataset: String,
      budget: Int,
      unifRmse: Double,
      bestSingleRmse: Double,
      worstSingleRmse: Double,
      combinedRmse: Double,
  )

  private def combineDataset(spark: SparkSession, key: String)
      : (Array[Boolean], Array[Double], Vector[Array[Double]]) =
    Harness.memo("combine", key) {
      key match {
        case "trec05p(keywords)" =>
          ExtDatasets.collectMultiProxy(ExtDatasets.trec05pMultiProxy(spark),
            Vector("proxy_kw1", "proxy_kw2", "proxy_kw3", "proxy_junk"))
        case "synthetic(noisy-theta)" =>
          ExtDatasets.collectMultiProxy(ExtDatasets.syntheticMultiProxy(spark),
            Vector("proxy_p1", "proxy_p2", "proxy_p3"))
      }
    }

  def fig12(spark: SparkSession, nTrials: Int): Vector[CombineCell] =
    Vector("trec05p(keywords)", "synthetic(noisy-theta)").flatMap { key =>
      val (positive, stat, proxies) = combineDataset(spark, key)
      val rec0 = LocalRecords(proxies.head, positive, stat)
      val truth = rec0.truth
      val strata = proxies.map(pr => StratifiedLocal(LocalRecords(pr, positive, stat), DefaultParams.k))
      // Per-proxy single-proxy ABAE RMSE; best/worst reported.
      Seq(2000, 6000, 10000).map { b =>
        val singles = strata.zipWithIndex.map { case (strat, j) =>
          Metrics.rmse(
            Harness.abaeEstimates(strat, b, nTrials, DefaultParams, 80L * b + j), truth)
        }
        val combined = Metrics.rmse((1 to nTrials).map(t =>
          ProxyCombiner.run(positive, stat, proxies, b, DefaultParams, 90L * b + t).estimate),
          truth)
        val unif = Metrics.rmse(
          Harness.uniformEstimates(rec0, b, nTrials, 95L * b), truth)
        CombineCell(key, b, unif, singles.min, singles.max, combined)
      }
    }
}
