package repro.bench

import repro.SparkSpec
import repro.exp.Figures

/** T-fig11: sensitivity to the Stage-1 budget fraction C ∈ {0.1 … 0.9}.
  * Paper claims: ABAE outperforms for C between 0.3 and 0.7; extreme
  * values (0.1, 0.9) can underperform on several datasets.
  */
class Fig11StageSplitSensitivityBench extends SparkSpec {

  test("T-fig11: sensitivity to stage-1 fraction C") {
    val cells = Figures.fig11.cells(spark)
    println(Figures.fig11.render(cells))

    // The recommended band must beat uniform.
    cells.filter(c => c.c >= 0.3 && c.c <= 0.7).foreach { c =>
      assert(c.abaeRmse <= c.unifRmse * 1.10,
        s"${c.dataset}@C=${c.c}: abae=${c.abaeRmse} uniform=${c.unifRmse}")
    }
    // Recommended C=0.5 should never lose to the extremes by much.
    cells.groupBy(_.dataset).foreach { case (d, cs) =>
      val mid = cs.find(_.c == 0.5).get.abaeRmse
      val extremes = cs.filter(c => c.c == 0.1 || c.c == 0.9).map(_.abaeRmse).min
      assert(mid <= extremes * 1.15, s"$d: mid=$mid extremes-best=$extremes")
    }
  }
}
