package repro.bench

import repro.SparkSpec
import repro.exp.Figures

/** T-fig5: budget vs bootstrap CI width and coverage. Paper claims: up to
  * 1.5× narrower CIs at a fixed budget, with nominal (95%) coverage
  * satisfied everywhere.
  */
class Fig5CiWidthBench extends SparkSpec {

  test("T-fig5: budget vs CI width and coverage") {
    val cells = Figures.fig5.cells(spark)
    println(Figures.fig5.render(cells))

    cells.foreach { c =>
      assert(c.abaeWidth <= c.unifWidth * 1.10,
        s"${c.dataset}@${c.budget}: abae=${c.abaeWidth} uniform=${c.unifWidth}")
      // Nominal 95% coverage with Monte-Carlo slack at ~200 trials (1 s.e. ≈ 0.015).
      assert(c.abaeCoverage >= 0.82, s"${c.dataset}@${c.budget}: coverage=${c.abaeCoverage}")
    }
    val maxGain = cells.map(c => c.unifWidth / c.abaeWidth).max
    assert(maxGain > 1.2, s"max CI-width gain=$maxGain")
  }
}
