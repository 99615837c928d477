package repro.exp

import org.apache.spark.sql.SparkSession
import repro.exp.CoreFigures.{CCell, CiCell, KCell, LesionCell, QErrorCell, RmseCell}
import repro.exp.ExtFigures.{CombineCell, GroupByCell, MultiPredCell}
import repro.exp.Harness.{f2, f4, trials}

/** One evaluation figure: its name, its cells at the figure's trial count
  * (and β), and its table: a title, a header and one row per cell.
  */
final case class Figure[C](
    name: String,
    cells: SparkSession => Vector[C],
    title: String,
    header: Seq[String],
    row: C => Seq[String],
) {
  def render(cs: Seq[C]): String = Harness.render(title, header, cs.map(row))
  def table(spark: SparkSession): String = render(cells(spark))
}

/** Figs. 2–12, each stated once: the bench suites assert the paper's
  * claims on `cells`, and `repro.jobs.FigureJob` prints `table`.
  */
object Figures {

  private def rmseFigure(name: String, cells: SparkSession => Vector[RmseCell], title: String) =
    Figure[RmseCell](name, cells, title,
      Seq("dataset", "budget", "abae_rmse", "abae_std", "uniform_rmse", "uniform_std", "gain"),
      c => Seq(c.dataset, c.budget.toString, f4(c.abaeRmse), f4(c.abaeStd), f4(c.unifRmse),
        f4(c.unifStd), f2(c.gain) + "x"))

  private def groupByFigure(name: String, cells: SparkSession => Vector[GroupByCell], title: String) =
    Figure[GroupByCell](name, cells, title,
      Seq("query", "budget/group", "abae_max_rmse", "uniform_max_rmse", "gain"),
      c => Seq(c.query, c.budgetPerGroup.toString, f4(c.abaeMaxRmse), f4(c.unifMaxRmse),
        f2(c.unifMaxRmse / c.abaeMaxRmse) + "x"))

  val fig2: Figure[RmseCell] = rmseFigure("fig2", CoreFigures.fig2(_, trials(300)),
    "T-fig2: budget vs RMSE (ABAE vs uniform)")
  val fig3: Figure[RmseCell] = rmseFigure("fig3", CoreFigures.fig3(_, trials(300)),
    "T-fig3: low budgets vs RMSE (ABAE vs uniform)")
  val fig4: Figure[QErrorCell] = Figure("fig4", CoreFigures.fig4(_, trials(300)),
    "T-fig4: budget vs normalized Q-error (100*(q-1))",
    Seq("dataset", "budget", "abae_qerr", "uniform_qerr"),
    c => Seq(c.dataset, c.budget.toString, f2(c.abaeQ), f2(c.unifQ)))
  val fig5: Figure[CiCell] = Figure("fig5", CoreFigures.fig5(_, trials(200), beta = 1000),
    "T-fig5: budget vs 95% CI width and empirical coverage",
    Seq("dataset", "budget", "abae_width", "abae_cover", "unif_width", "unif_cover"),
    c => Seq(c.dataset, c.budget.toString, f4(c.abaeWidth), f2(c.abaeCoverage), f4(c.unifWidth),
      f2(c.unifCoverage)))
  val fig6: Figure[MultiPredCell] = Figure("fig6", ExtFigures.fig6(_, trials(300)),
    "T-fig6: ABAE-MultiPred vs uniform (RMSE)",
    Seq("query", "budget", "abae_rmse", "uniform_rmse", "gain"),
    c => Seq(c.query, c.budget.toString, f4(c.abaeRmse), f4(c.unifRmse),
      f2(c.unifRmse / c.abaeRmse) + "x"))
  val fig7: Figure[GroupByCell] = groupByFigure("fig7", ExtFigures.fig7(_, trials(100)),
    "T-fig7: ABAE-GroupBy (single oracle) vs uniform (max RMSE)")
  val fig8: Figure[GroupByCell] = groupByFigure("fig8", ExtFigures.fig8(_, trials(100)),
    "T-fig8: ABAE-GroupBy (multiple oracles) vs uniform (max RMSE)")
  val fig9: Figure[LesionCell] = Figure("fig9", CoreFigures.fig9(_, trials(300)),
    "T-fig9: lesion study @ N=10000 (RMSE)",
    Seq("dataset", "abae", "no_sample_reuse", "uniform"),
    c => Seq(c.dataset, f4(c.abaeRmse), f4(c.noReuseRmse), f4(c.unifRmse)))
  val fig10: Figure[KCell] = Figure("fig10", CoreFigures.fig10(_, trials(200)),
    "T-fig10: sensitivity to number of strata K @ N=10000 (RMSE)",
    Seq("dataset", "K", "abae_rmse", "uniform_rmse"),
    c => Seq(c.dataset, c.k.toString, f4(c.abaeRmse), f4(c.unifRmse)))
  val fig11: Figure[CCell] = Figure("fig11", CoreFigures.fig11(_, trials(200)),
    "T-fig11: sensitivity to stage-1 fraction C @ N=10000 (RMSE)",
    Seq("dataset", "C", "abae_rmse", "uniform_rmse"),
    c => Seq(c.dataset, c.c.toString, f4(c.abaeRmse), f4(c.unifRmse)))
  val fig12: Figure[CombineCell] = Figure("fig12", ExtFigures.fig12(_, trials(150)),
    "T-fig12: combining proxies via logistic regression (RMSE)",
    Seq("dataset", "budget", "uniform", "best_single", "worst_single", "combined"),
    c => Seq(c.dataset, c.budget.toString, f4(c.unifRmse), f4(c.bestSingleRmse),
      f4(c.worstSingleRmse), f4(c.combinedRmse)))

  val all: Seq[Figure[_]] = Seq(fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12)
}
