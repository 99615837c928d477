package repro.exp

import org.apache.spark.sql.SparkSession
import repro.SparkSpec
import repro.data.Datasets
import repro.jobs.FigureJob

/** The figure suite's plumbing: the dataset memo, the figure list, the job
  * entry point, and one small run of the per-(dataset, budget) figures.
  */
class FiguresSpec extends SparkSpec {

  test("the memo builds once per (kind, key); kinds do not collide") {
    var builds = 0
    def build(v: Int): Int = { builds += 1; v }
    assert(Harness.memo("memo-spec", "a")(build(1)) == 1)
    assert(Harness.memo("memo-spec", "a")(build(2)) == 1)
    assert(Harness.memo("memo-spec-other", "a")(build(3)) == 3)
    assert(Harness.memo("memo-spec", "b")(build(4)) == 4)
    assert(builds == 3)
  }

  test("the figures are exactly fig2 … fig12, each named once") {
    assert(Figures.all.map(_.name) == (2 to 12).map(n => s"fig$n"))
  }

  test("FigureJob rejects an unknown figure with a usage message before starting Spark") {
    // A job that got (the shared) session before checking would stop it.
    val before = spark
    for (args <- Seq(Array("fig13"), Array.empty[String], Array("fig2", "fig3"))) {
      val e = intercept[IllegalArgumentException](FigureJob.main(args))
      assert(e.getMessage.startsWith("usage: FigureJob <fig2|fig3|"), e.getMessage)
    }
    assert(SparkSession.getDefaultSession.contains(before) && !before.sparkContext.isStopped)
  }

  test("rmseSweep, fig4 and fig5 give one finite cell per (dataset, budget)") {
    val tiny = Datasets.celeba.copy(name = "celeba-tiny", size = 20000)
    val rmse = CoreFigures.rmseSweep(spark, Seq(200, 400), nTrials = 5, profiles = Seq(tiny))
    assert(rmse.map(c => (c.dataset, c.budget)) == Seq(("celeba-tiny", 200), ("celeba-tiny", 400)))
    assert(rmse.forall(c => Seq(c.abaeRmse, c.abaeStd, c.unifRmse, c.unifStd).forall(_.isFinite)))

    val q = CoreFigures.fig4(spark, nTrials = 5, profiles = Seq(tiny))
    assert(q.map(c => (c.dataset, c.budget)) == CoreFigures.PaperBudgets.map(("celeba-tiny", _)))
    assert(q.forall(c => c.abaeQ.isFinite && c.unifQ.isFinite))

    val ci = CoreFigures.fig5(spark, nTrials = 5, beta = 20, budgets = Seq(200), profiles = Seq(tiny))
    assert(ci.map(c => (c.dataset, c.budget)) == Seq(("celeba-tiny", 200)))
    assert(ci.forall(c => Seq(c.abaeWidth, c.abaeCoverage, c.unifWidth, c.unifCoverage).forall(_.isFinite)))
  }

  test("fig7 and fig8 give one finite, positive max-RMSE pair per (query, budget)") {
    def check(cells: Vector[ExtFigures.GroupByCell], queries: Seq[String]): Unit = {
      assert(cells.map(c => (c.query, c.budgetPerGroup)) == queries.map((_, 500)))
      assert(cells.forall(c => Seq(c.abaeMaxRmse, c.unifMaxRmse).forall(x => x.isFinite && x > 0)), cells)
    }
    check(ExtFigures.fig7(spark, nTrials = 2, budgetsPerGroup = Seq(500)), Seq("celeba(hair)", "synthetic(3.3-3.5%)"))
    check(ExtFigures.fig8(spark, nTrials = 2, budgetsPerGroup = Seq(500)), Seq("celeba(hair)", "synthetic(16/12/9/5%)"))
  }
}
