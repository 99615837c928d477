package repro.bench

import repro.SparkSpec
import repro.exp.Figures

/** T-fig4: budget vs normalized Q-error (100·(q−1)). Paper claims: ABAE
  * outperforms on Q-error by 14–70% across datasets.
  */
class Fig4QErrorBench extends SparkSpec {

  test("T-fig4: budget vs normalized Q-error") {
    val cells = Figures.fig4.cells(spark)
    println(Figures.fig4.render(cells))

    cells.foreach { c =>
      assert(c.abaeQ <= c.unifQ * 1.10,
        s"${c.dataset}@${c.budget}: abae=${c.abaeQ} uniform=${c.unifQ}")
    }
    // Average relative improvement in the paper's reported 14–70% band
    // (we only require it to be clearly positive).
    val improvement = cells.map(c => (c.unifQ - c.abaeQ) / c.unifQ)
    assert(improvement.sum / improvement.size > 0.05,
      s"mean improvement=${improvement.sum / improvement.size}")
  }
}
