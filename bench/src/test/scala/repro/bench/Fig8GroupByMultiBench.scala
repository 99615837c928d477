package repro.bench

import repro.SparkSpec
import repro.exp.Figures

/** T-fig8: ABAE-GroupBy with one oracle per group vs uniform, max RMSE
  * over groups vs budget normalized by group count. Paper claims:
  * ABAE-GroupBy outperforms on both queries at every budget (log-scale
  * gaps on the synthetic).
  */
class Fig8GroupByMultiBench extends SparkSpec {

  test("T-fig8: group-by (multiple oracles), max RMSE vs normalized budget") {
    val cells = Figures.fig8.cells(spark)
    println(Figures.fig8.render(cells))

    // Matches-or-beats per cell (Monte-Carlo slack; the smallest budget
    // has per-group pilots of only a few members per stratum), clear
    // aggregate win.
    cells.foreach { c =>
      assert(c.abaeMaxRmse <= c.unifMaxRmse * 1.15,
        s"${c.query}@${c.budgetPerGroup}: abae=${c.abaeMaxRmse} uniform=${c.unifMaxRmse}")
    }
    val gains = cells.map(c => c.unifMaxRmse / c.abaeMaxRmse)
    assert(gains.sum / gains.size > 1.15, s"mean gain=${gains.sum / gains.size}")
    assert(gains.max > 1.3, s"max gain=${gains.max}")
  }
}
