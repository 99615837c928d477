package repro.bench

import repro.SparkSpec
import repro.exp.Figures

/** T-fig10: sensitivity to the number of strata K ∈ [2, 10]. Paper
  * claims: ABAE outperforms uniform for every K; performance is not
  * strongly sensitive to K, with more strata tending to do slightly
  * better.
  */
class Fig10StrataSensitivityBench extends SparkSpec {

  test("T-fig10: sensitivity to number of strata K") {
    val cells = Figures.fig10.cells(spark)
    println(Figures.fig10.render(cells))

    cells.foreach { c =>
      assert(c.abaeRmse <= c.unifRmse * 1.15,
        s"${c.dataset}@K=${c.k}: abae=${c.abaeRmse} uniform=${c.unifRmse}")
    }
    // Not strongly sensitive: within a dataset, best and worst K differ
    // by a bounded factor.
    cells.groupBy(_.dataset).foreach { case (d, cs) =>
      val r = cs.map(_.abaeRmse)
      assert(r.max / r.min < 2.5, s"$d: K-sensitivity ratio ${r.max / r.min}")
    }
  }
}
