package perfbench

import org.apache.spark.scheduler._
import repro.core._
import repro.data.{CountingOracle, FlatOracle}
import repro.sampling.{PermutationSampler, Rng, StratumSampler}
import scala.collection.mutable

/** The traced run. This is the only file that wraps the program's
  * samplers and oracles or calls its lower-level overloads; the untraced
  * run in [[Workload]] uses only the stable entry points. Spans are
  * recorded around the calls into each layer and kept in memory until the
  * run ends.
  */
final class Tracer extends Spans {
  private val names = mutable.ArrayBuffer.empty[String]
  private val nameIds = mutable.HashMap.empty[String, Int]
  /** Six longs per span: id, parent, round, name id, start ns, end ns. */
  private val spans = mutable.ArrayBuffer.empty[Long]
  private val counts = mutable.LinkedHashMap.empty[(Int, String), Double]
  private var nextId = 1L
  private var current = 0L
  var round = 0

  private def add(id: Long, parent: Long, name: String, start: Long, end: Long): Unit = {
    val nameId = nameIds.getOrElseUpdate(name, { names += name; names.length - 1 })
    spans ++= Seq(id, parent, round.toLong, nameId.toLong, start, end)
  }

  /** Record an interval timed elsewhere as a child of the open span. */
  def record(name: String, start: Long, end: Long): Unit = {
    add(nextId, current, name, start, end)
    nextId += 1
  }

  def apply[A](name: String)(f: => A): A = {
    val parent = current
    val id = nextId
    nextId += 1
    current = id
    val start = System.nanoTime()
    try f
    finally {
      current = parent
      add(id, parent, name, start, System.nanoTime())
    }
  }

  def count(name: String, v: Double): Unit = counts((round, name)) = counts.getOrElse((round, name), 0.0) + v

  def write(out: Out): Unit = {
    out.line(Map("type" -> "spans", "names" -> names.toSeq,
      "rows" -> spans.grouped(6).map(_.toSeq).toSeq))
    counts.foreach { case ((r, n), v) => out.line(Map("type" -> "count", "round" -> r, "name" -> n, "value" -> v)) }
  }
}

/** Counts and times oracle calls. Calls are timed in batches: one
  * `oracle.query` span runs from the first call after a sampler draw to
  * the end of the last call before the next draw, so a span per record is
  * never needed.
  */
final class OracleMeter(tr: Tracer) {
  private var batchStart = -1L
  private var lastEnd = 0L
  private var calls = 0L

  private def timed[A](f: => A): A = {
    if (batchStart < 0) batchStart = System.nanoTime()
    calls += 1
    val r = f
    lastEnd = System.nanoTime()
    r
  }

  /** Check the calls counted since the last settle against the charge the
    * program reports for them, and record them as `oracle.calls`.
    */
  def settle(what: String, charged: Long): Unit = {
    close()
    Workload.checkCalls(what, calls, charged)
    tr.count("oracle.calls", calls.toDouble)
    calls = 0
  }

  def stratified(f: (Int, Int) => (Boolean, Double)): (Int, Int) => (Boolean, Double) = (k, i) => timed(f(k, i))
  def flat(f: Int => (Boolean, Double)): Int => (Boolean, Double) = i => timed(f(i))

  def close(): Unit = if (batchStart >= 0) {
    tr.record("oracle.query", batchStart, lastEnd)
    batchStart = -1
  }
}

/** A [[StratumSampler]] that records each draw as a `sampling.next` span. */
final class TimingSampler(inner: StratumSampler, tr: Tracer, meter: OracleMeter) extends StratumSampler {
  def populationSize: Int = inner.populationSize
  def drawn: Int = inner.drawn
  def next(count: Int): Array[Int] = {
    meter.close()
    tr.count("sampling.next_calls", 1)
    val out = tr("sampling.next")(inner.next(count))
    tr.count("sampling.indices_drawn", out.length)
    out
  }
}

/** Spark task, stage and job totals, from a listener on the session. */
final class SparkCounters extends SparkListener {
  val totals = new java.util.concurrent.ConcurrentHashMap[String, java.lang.Double]()
  private def add(k: String, v: Double): Unit = totals.merge(k, v, (a, b) => a + b)

  override def onJobStart(e: SparkListenerJobStart): Unit = add("spark.jobs", 1)
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = add("spark.stages", 1)
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    add("spark.tasks", 1)
    val m = e.taskMetrics
    if (m != null) {
      add("spark.task_ms_sum", m.executorRunTime.toDouble)
      totals.merge("spark.task_ms_max", m.executorRunTime.toDouble, (a, b) => math.max(a, b))
      add("spark.shuffle_write_bytes", m.shuffleWriteMetrics.bytesWritten.toDouble)
      add("spark.shuffle_read_bytes", m.shuffleReadMetrics.totalBytesRead.toDouble)
      add("spark.spill_bytes", (m.memoryBytesSpilled + m.diskBytesSpilled).toDouble)
    }
  }

  /** Listener events arrive asynchronously: wait until the task count
    * has been still for a moment.
    */
  def settle(): Unit = {
    var last = -1.0
    var waited = 0
    while (waited < 5000 && totals.getOrDefault("spark.tasks", 0.0) != last) {
      last = totals.getOrDefault("spark.tasks", 0.0)
      Thread.sleep(200)
      waited += 200
    }
  }
}

object Traced {
  import Workload._

  /** Run `op` with every reachable layer wrapped. Must return exactly what
    * the untraced run returns for the same op.
    */
  def run(w: Workload, op: Op, tr: Tracer): OpResult = w match {
    case t: Trials if SingleTrials.Kinds(op.kind) => single(t.single, op, tr)
    case _ => w.run(op, tr)
  }

  /** [[SingleTrials.run]] through the lower-level overloads, so that the
    * samplers and oracles can be wrapped.
    */
  private def single(t: SingleTrials, op: Op, tr: Tracer): OpResult = {
    val (rec, strat) = t.data(op.cell)
    val meter = new OracleMeter(tr)
    val oracle = new CountingOracle(strat)
    // The samplers Abae.run(data, oracle, budget, params, seed) builds.
    val samplers = Vector.tabulate(strat.k) { s =>
      new TimingSampler(new PermutationSampler(strat.strata(s).n, Rng.stream(op.seed, s)), tr, meter)
    }
    val a = tr("core.abae_run") {
      val r = Abae.run(strat.sizes, meter.stratified(oracle.query), samplers, op.budget, Params)
      meter.close()
      r
    }
    meter.settle("Abae.run", a.oracleCalls)
    op.kind match {
      case "estimate" =>
        val flat = new FlatOracle(rec)
        // The stream UniformSampling.run(records, budget, seed) draws from.
        val u = tr("core.uniform_run") {
          val r = UniformSampling.run(rec.n, meter.flat(flat.query), op.budget, Rng.stream(op.seed, Long.MaxValue / 3))
          meter.close()
          r
        }
        meter.settle("UniformSampling.run", u.oracleCalls)
        t.estimate(op, rec, a, u)
      case "ci" => t.interval(op, rec, a, bootstrap(a.draws, op, tr))
    }
  }

  /** Layers that run inside a kernel and cannot be wrapped from outside,
    * timed by calling them alone: milliseconds per probe, by metric name.
    */
  def probes(w: Workload): Map[String, Seq[Double]] = w match {
    case t: Trials =>
      val x = t.ext
      val (pos, _, px) = x.keywords
      // The pilot ProxyCombiner.run draws at its smallest budget here.
      val pilot = new PermutationSampler(pos.length, new scala.util.Random(1)).next(x.CombineBudgets.min / 2)
      val labels = pilot.map(pos)
      Map(
        "data.ntile_probe_ms" -> Seq.fill(3)(timeMs(x.proxies.foreach(p =>
          repro.data.StratifiedLocal.ntileIndices(p, Params.k)))),
        "ml.combine_scores_probe_ms" -> Seq.fill(5)(timeMs(ProxyCombiner.combineScores(px, pilot, labels))),
      )
    case _ => Map.empty
  }

  private def timeMs(f: => Any): Double = {
    val t0 = System.nanoTime()
    f
    (System.nanoTime() - t0) / 1e6
  }
}
