package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data._
import repro.metrics.Metrics

/** Shared experiment machinery for the evaluation-figure tables.
  *
  * Spark generates and stratifies each dataset once (memoized per JVM);
  * the Monte-Carlo trial loops then run through the local engine — the
  * same algorithm as the Spark engine (tested identical), with the cost
  * unit (oracle calls) charged by [[repro.data.Oracle]].
  *
  * Knob (environment): `ABAE_BENCH_TRIALS` scales every trial count.
  * Datasets are built at the paper's sizes.
  */
object Harness {

  /** Trial count for a figure, scaled by ABAE_BENCH_TRIALS / 300. */
  def trials(default: Int): Int = {
    val scale = sys.env.get("ABAE_BENCH_TRIALS").map(_.toDouble / 300.0).getOrElse(1.0)
    math.max(10, math.round(default * scale).toInt)
  }

  // ------------------------------------------------------------- data memo

  private val built = scala.collection.mutable.Map.empty[(String, Any), Any]

  /** `build` once per (kind, key) per JVM. The kind names what is
    * built ("records", "strata", "groupby", …), so two datasets that share
    * a key under different kinds never collide.
    */
  def memo[A](kind: String, key: Any)(build: => A): A =
    built.getOrElseUpdate((kind, key), build).asInstanceOf[A]

  /** A profile generated and collected at the paper's size. */
  def records(spark: SparkSession, profile: Datasets.Profile): LocalRecords =
    memo("records", profile.name)(Datasets.local(spark, profile))

  def stratified(spark: SparkSession, profile: Datasets.Profile, k: Int): StratifiedLocal =
    memo("strata", (profile.name, k))(StratifiedLocal(records(spark, profile), k))

  // ------------------------------------------------------------ trial loops

  def abaeEstimates(
      strat: StratifiedLocal,
      budget: Int,
      nTrials: Int,
      params: AbaeParams,
      seedBase: Long,
  ): Vector[Double] =
    Vector.tabulate(nTrials) { t =>
      Abae.run(strat, new CountingOracle(strat), budget, params, seedBase + t).estimate
    }

  def uniformEstimates(
      rec: LocalRecords,
      budget: Int,
      nTrials: Int,
      seedBase: Long,
  ): Vector[Double] =
    Vector.tabulate(nTrials)(t => UniformSampling.run(rec, budget, seedBase + t).estimate)

  /** (RMSE, stddev of absolute error) — the paper's line + shaded band. */
  def rmseAndStd(estimates: Seq[Double], truth: Double): (Double, Double) =
    (Metrics.rmse(estimates, truth), Metrics.stddev(estimates.map(e => math.abs(e - truth))))

  // ---------------------------------------------------------------- tables

  /** Fixed-width ASCII table, one row per condition. */
  def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(cells: Seq[String]): String =
      cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"\n=== $title ===" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  def f4(d: Double): String = f"$d%.4f"
  def f2(d: Double): String = f"$d%.2f"
}
