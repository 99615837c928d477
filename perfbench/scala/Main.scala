package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** Minimal JSON-lines writer for the raw run records. */
final class Out(path: String) {
  private val w = new java.io.PrintWriter(new java.io.BufferedWriter(new java.io.FileWriter(path)))

  private def str(s: String): String =
    s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    }.mkString("\"", "", "\"")

  def enc(v: Any): String = v match {
    case null | None => "null"
    case Some(x) => enc(x)
    case s: String => str(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: Map[_, _] => m.map { case (k, x) => str(k.toString) + ":" + enc(x) }.mkString("{", ",", "}")
    case a: Array[_] => enc(a.toSeq)
    case (a, b) => enc(Seq(a, b))
    case xs: Iterable[_] => xs.map(enc).mkString("[", ",", "]")
  }

  def line(m: Map[String, Any]): Unit = w.println(enc(m))
  def close(): Unit = w.close()
}

/** Runs one workload and writes raw records (set-up times, one record per
  * op and per round, spans when traced) as JSON lines; `perfbench/run.py`
  * turns them into metrics.
  *
  * Usage: `Main <workload> <seed> <seconds> <trace 0|1> <out.jsonl> <spark threads> <spark local dir>`
  */
object Main {
  val SetupReps = 3

  private def jvmGc: (Double, Double) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime.toDouble).sum, beans.map(_.getCollectionCount.toDouble).sum)
  }

  private def heapUsedMb: Double = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0

  def main(args: Array[String]): Unit = {
    val Array(workloadName, seedArg, secondsArg, traceArg, outPath, threads, localDir) = args
    val seed = seedArg.toLong
    val seconds = secondsArg.toDouble
    val traced = traceArg == "1"
    val w = Workload(workloadName)
    val out = new Out(outPath)

    val spark = SparkSession.builder()
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", (2 * threads.toInt).toString)
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", localDir + "/warehouse")
      .getOrCreate()
    try {
      val sessionS = ManagementFactory.getRuntimeMXBean.getUptime / 1000.0
      val reps = Vector.fill(SetupReps) {
        val clock = new SetupClock
        val t0 = System.nanoTime()
        w.setUp(spark, clock)
        ((System.nanoTime() - t0) / 1e9, clock.ms.toMap)
      }
      val fingerprints = w.fingerprints

      def runOp(f: => OpResult): (Option[OpResult], Double, Option[String]) = {
        val t0 = System.nanoTime()
        val r = try Right(f) catch { case e: Exception => Left(s"${e.getClass.getSimpleName}: ${e.getMessage}") }
        val ms = (System.nanoTime() - t0) / 1e6
        r match {
          case Right(res) => (Some(res), ms, res.failure)
          case Left(err) => (None, ms, Some(err))
        }
      }

      val warm0 = System.nanoTime()
      w.prime()
      for (r <- 1 to w.warmupRounds; op <- w.ops(seed ^ 0x3a3a3aL, -r)) runOp(w.run(op, NoSpans))
      val warmupS = (System.nanoTime() - warm0) / 1e9

      out.line(Map(
        "type" -> "setup", "session_s" -> sessionS, "warmup_s" -> warmupS,
        "reps_s" -> reps.map(_._1), "reps_layers_ms" -> reps.map(_._2)))
      val rt = Runtime.getRuntime
      out.line(Map(
        "type" -> "jvm",
        "java_version" -> System.getProperty("java.version"),
        "max_heap_mb" -> rt.maxMemory / 1048576.0,
        "available_processors" -> rt.availableProcessors,
        "spark_version" -> spark.version,
        "spark_master" -> spark.sparkContext.master,
        "spark_default_parallelism" -> spark.sparkContext.defaultParallelism,
        "spark_shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      ))
      fingerprints.foreach { f =>
        out.line(Map("type" -> "dataset", "name" -> f.name, "rows" -> f.rows, "truth" -> f.truth,
          "positive_rate" -> f.positiveRate))
      }

      val tracer = new Tracer
      val sparkCounters = new SparkCounters
      if (traced) spark.sparkContext.addSparkListener(sparkCounters)

      /** One pass over a round's ops; returns each op's outputs. */
      def pass(round: Int, ops: Vector[Op], isTraced: Boolean)(f: Int => OpResult): Vector[Option[OpResult]] = {
        val (gc0, gcn0) = jvmGc
        var heapPeak = heapUsedMb
        val t0 = System.nanoTime()
        val results = ops.indices.toVector.map { i =>
          val op = ops(i)
          val (res, ms, err) = runOp(f(i))
          heapPeak = math.max(heapPeak, heapUsedMb)
          out.line(Map(
            "type" -> "op", "round" -> round, "traced" -> isTraced, "kind" -> op.kind, "cell" -> op.cell,
            "budget" -> op.budget, "seed" -> op.seed, "ms" -> ms,
            "calls" -> res.map(_.calls).getOrElse(Nil), "est" -> res.map(_.est).getOrElse(Nil),
            "base" -> res.map(_.base).getOrElse(Nil), "truth" -> res.map(_.truth).getOrElse(Nil),
            "ci" -> res.flatMap(_.ci), "error" -> err))
          res
        }
        val ms = (System.nanoTime() - t0) / 1e6
        val (gc1, gcn1) = jvmGc
        out.line(Map("type" -> "round", "round" -> round, "traced" -> isTraced, "ms" -> ms,
          "ops" -> ops.length, "gc_ms" -> (gc1 - gc0), "gc_count" -> (gcn1 - gcn0), "heap_peak_mb" -> heapPeak))
        results
      }

      val start = System.nanoTime()
      var round = 0
      while (round < w.minRounds || (System.nanoTime() - start) / 1e9 < seconds) {
        val ops = w.ops(seed, round)
        tracer.round = round
        // Traced runs replay each round with spans; which pass goes first
        // alternates, so caches warmed by the first pass favour neither.
        val passes = if (!traced) Seq(false) else if (round % 2 == 0) Seq(false, true) else Seq(true, false)
        passes.foldLeft(Option.empty[Vector[Option[OpResult]]]) { (first, isTraced) =>
          Some(pass(round, ops, isTraced) { i =>
            val r = if (isTraced) Traced.run(w, ops(i), tracer) else w.run(ops(i), NoSpans)
            if (first.exists(_(i).exists(_.outputs != r.outputs)))
              throw new IllegalStateException("traced and untraced results differ")
            r
          })
        }
        round += 1
      }
      out.line(Map("type" -> "measured", "rounds" -> round, "min_rounds" -> w.minRounds, "seconds" -> (System.nanoTime() - start) / 1e9))

      if (traced) {
        tracer.write(out)
        Traced.probes(w).foreach { case (name, ms) => out.line(Map("type" -> "probe", "name" -> name, "ms" -> ms)) }
        sparkCounters.settle()
        out.line(Map("type" -> "spark", "totals" -> sparkCounters.totals.asScala.map { case (k, v) => k -> v.doubleValue }.toMap))
      }
      out.line(Map("type" -> "end"))
    } finally {
      out.close()
      spark.stop()
    }
  }
}
