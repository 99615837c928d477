package repro.bench

import repro.SparkSpec
import repro.exp.Figures

/** T-fig2: sampling budget (2k–10k) vs RMSE, ABAE vs uniform, all six
  * datasets. Paper claims: ABAE outperforms on every dataset and budget,
  * with up to 2.3× RMSE improvement at a fixed budget.
  */
class Fig2BudgetRmseBench extends SparkSpec {

  test("T-fig2: budget vs RMSE, ABAE vs uniform") {
    val cells = Figures.fig2.cells(spark)
    println(Figures.fig2.render(cells))

    // Shape: ABAE matches or beats uniform everywhere…
    cells.foreach { c =>
      assert(c.abaeRmse <= c.unifRmse * 1.10,
        s"${c.dataset}@${c.budget}: abae=${c.abaeRmse} uniform=${c.unifRmse}")
    }
    // …wins clearly on the selective strong-proxy datasets…
    for (d <- Seq("night-street", "celeba"); c <- cells
         if c.dataset == d && c.budget >= 4000) {
      assert(c.gain > 1.05, s"$d@${c.budget}: gain=${c.gain}")
    }
    // …with a best-case gain comparable to the paper's 1.5–2.3×…
    assert(cells.map(_.gain).max > 1.3, s"max gain=${cells.map(_.gain).max}")
    // …and RMSE decreasing with budget for both methods per dataset.
    cells.groupBy(_.dataset).foreach { case (d, cs) =>
      val sorted = cs.sortBy(_.budget)
      assert(sorted.last.abaeRmse < sorted.head.abaeRmse, s"$d: ABAE RMSE not decreasing")
      assert(sorted.last.unifRmse < sorted.head.unifRmse, s"$d: uniform RMSE not decreasing")
    }
  }
}
