package repro.bench

import repro.SparkSpec
import repro.exp.Figures

/** T-fig6: ABAE-MultiPred vs uniform on the traffic query
  * (`count_cars > 0 AND red_light`, combined positive rate ≈ 0.17) and
  * the Beta-rates synthetic. Paper claims: MultiPred outperforms on both
  * queries at every budget.
  */
class Fig6MultiPredBench extends SparkSpec {

  test("T-fig6: multi-predicate queries, ABAE-MultiPred vs uniform") {
    val cells = Figures.fig6.cells(spark)
    println(Figures.fig6.render(cells))

    cells.foreach { c =>
      assert(c.abaeRmse <= c.unifRmse * 1.10,
        s"${c.query}@${c.budget}: abae=${c.abaeRmse} uniform=${c.unifRmse}")
    }
    // Clear wins at the larger budgets on both queries.
    cells.groupBy(_.query).foreach { case (q, cs) =>
      val big = cs.filter(_.budget >= 6000)
      assert(big.exists(c => c.unifRmse / c.abaeRmse > 1.1), s"$q: no clear win")
    }
  }
}
