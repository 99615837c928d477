package repro.bench

import repro.SparkSpec
import repro.exp.Figures

/** T-fig12: combining candidate proxies with logistic regression vs
  * uniform sampling and single-proxy ABAE. Paper claims: the combined
  * proxy outperforms the baselines, effectively ignoring low-quality
  * proxies.
  */
class Fig12ProxyCombineBench extends SparkSpec {

  test("T-fig12: proxy combination via logistic regression") {
    val cells = Figures.fig12.cells(spark)
    println(Figures.fig12.render(cells))

    cells.foreach { c =>
      // Combined beats uniform…
      assert(c.combinedRmse <= c.unifRmse * 1.05,
        s"${c.dataset}@${c.budget}: combined=${c.combinedRmse} uniform=${c.unifRmse}")
      // …clearly beats the worst single proxy (junk is "ignored")…
      assert(c.combinedRmse < c.worstSingleRmse,
        s"${c.dataset}@${c.budget}: combined=${c.combinedRmse} worst=${c.worstSingleRmse}")
      // …and is competitive with the best single proxy.
      assert(c.combinedRmse <= c.bestSingleRmse * 1.25,
        s"${c.dataset}@${c.budget}: combined=${c.combinedRmse} best=${c.bestSingleRmse}")
    }
  }
}
