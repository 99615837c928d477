package repro.bench

import repro.SparkSpec
import repro.exp.Figures

/** T-fig7: ABAE-GroupBy with a single group-key oracle vs uniform, max
  * RMSE over groups vs budget normalized by group count. Paper claims:
  * ABAE-GroupBy outperforms on both queries at every budget.
  */
class Fig7GroupBySingleBench extends SparkSpec {

  test("T-fig7: group-by (single oracle), max RMSE vs normalized budget") {
    val cells = Figures.fig7.cells(spark)
    println(Figures.fig7.render(cells))

    // Matches-or-beats per cell (Monte-Carlo slack), clear aggregate win.
    cells.foreach { c =>
      assert(c.abaeMaxRmse <= c.unifMaxRmse * 1.15,
        s"${c.query}@${c.budgetPerGroup}: abae=${c.abaeMaxRmse} uniform=${c.unifMaxRmse}")
    }
    val gains = cells.map(c => c.unifMaxRmse / c.abaeMaxRmse)
    assert(gains.sum / gains.size > 1.05, s"mean gain=${gains.sum / gains.size}")
    assert(gains.max > 1.2, s"max gain=${gains.max}")
  }
}
