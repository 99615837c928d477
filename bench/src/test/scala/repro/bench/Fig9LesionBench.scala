package repro.bench

import repro.SparkSpec
import repro.exp.Figures

/** T-fig9: lesion study at N=10,000 — full ABAE vs ABAE without sample
  * reuse vs uniform sampling. Paper claims: both the two-stage allocation
  * and sample reuse are necessary; removing reuse substantially harms
  * performance.
  */
class Fig9LesionBench extends SparkSpec {

  test("T-fig9: lesion study (sample reuse and stratification)") {
    val cells = Figures.fig9.cells(spark)
    println(Figures.fig9.render(cells))

    cells.foreach { c =>
      // Full ABAE beats (or at worst matches) the no-reuse lesion…
      assert(c.abaeRmse <= c.noReuseRmse * 1.05,
        s"${c.dataset}: abae=${c.abaeRmse} noReuse=${c.noReuseRmse}")
      // …and beats uniform.
      assert(c.abaeRmse <= c.unifRmse * 1.05,
        s"${c.dataset}: abae=${c.abaeRmse} uniform=${c.unifRmse}")
    }
    // Reuse must matter substantially on at least some datasets.
    assert(cells.map(c => c.noReuseRmse / c.abaeRmse).max > 1.15,
      "sample reuse showed no effect anywhere")
  }
}
