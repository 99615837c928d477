package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Figures

/** Prints one evaluation figure's table, the same table its bench suite
  * prints. Trial counts honour `ABAE_BENCH_TRIALS` (default 300-scaled;
  * see [[repro.exp.Harness.trials]]).
  *
  * Usage: `spark-submit ... repro.jobs.FigureJob <fig2|…|fig12>`
  */
object FigureJob {
  def main(args: Array[String]): Unit = {
    val figure = Figures.all.find(f => args.toSeq == Seq(f.name)).getOrElse(throw
      new IllegalArgumentException(s"usage: FigureJob <${Figures.all.map(_.name).mkString("|")}>"))
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(figure.name).getOrCreate()
    try println(figure.table(spark))
    finally spark.stop()
  }
}
