package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{avg, col}
import repro.core._
import repro.data._
import scala.util.Random

/** One program call of a round: which kernel, on which cell, with which
  * oracle budget and sampling seed. Every field comes from the workload
  * seed, so the same seed replays the same calls.
  */
final case class Op(kind: String, cell: String, budget: Int, seed: Long)

/** What one op returned.
  *
  * @param est    the ABAE-side estimate(s): one per group for GroupBy
  * @param base   the uniform baseline's estimate(s), when the op runs one
  * @param truth  exhaustive answer(s) aligned with `est`
  * @param ci     (lo, hi) when the op computes a bootstrap interval
  * @param calls  oracle calls charged by each estimator call of the op
  */
final case class OpResult(
    op: Op,
    est: Array[Double],
    base: Array[Double],
    truth: Array[Double],
    ci: Option[(Double, Double)],
    calls: Vector[Long],
) {
  /** The per-operation correctness checks; `None` when all pass. */
  def failure: Option[String] = {
    val nums = est ++ base ++ ci.toSeq.flatMap { case (l, h) => Seq(l, h) }
    if (est.length != truth.length) Some(s"${est.length} estimates for ${truth.length} answers")
    else if (nums.exists(x => x.isNaN || x.isInfinite)) Some("non-finite estimate or interval")
    else if (ci.exists { case (l, h) => l > h }) Some("interval lo > hi")
    else calls.find(_ > op.budget).map(c => s"$c oracle calls over budget ${op.budget}")
  }

  /** Everything the op computed, for the traced-equals-untraced check. */
  def outputs: Seq[Double] = est.toSeq ++ base ++ ci.toSeq.flatMap { case (l, h) => Seq(l, h) }
}

/** Wall time of each timed step of one set-up pass, by per-layer name. */
final class SetupClock {
  val ms = scala.collection.mutable.LinkedHashMap.empty[String, Double]
  def time[A](name: String)(f: => A): A = {
    val t0 = System.nanoTime()
    val r = f
    ms(name) = ms.getOrElse(name, 0.0) + (System.nanoTime() - t0) / 1e6
    r
  }
}

/** Where a workload marks the layers it calls into. The untraced run
  * passes [[NoSpans]]; the traced run passes its [[Tracer]].
  */
trait Spans {
  def apply[A](name: String)(f: => A): A
  def count(name: String, v: Double): Unit
}

object NoSpans extends Spans {
  def apply[A](name: String)(f: => A): A = f
  def count(name: String, v: Double): Unit = ()
}

/** Size, exhaustive answer and positive rate of one generated dataset. */
final case class Fingerprint(name: String, rows: Long, truth: Seq[Double], positiveRate: Double)

/** A benchmark workload: data set-up, then rounds of ops through the
  * program's stable entry points. Tracing lives in [[Traced]].
  */
sealed abstract class Workload {
  /** Rounds every run completes, so accuracy is computed over the same ops. */
  def minRounds: Int
  def warmupRounds: Int
  def setUp(spark: SparkSession, clock: SetupClock): Unit
  def fingerprints: Seq[Fingerprint]
  def ops(seed: Long, round: Int): Vector[Op]
  def run(op: Op, sp: Spans): OpResult
  /** Runs before the warm-up rounds, to bring the JIT where long runs settle. */
  def prime(): Unit = ()
}

object Workload {
  def apply(name: String): Workload = name match {
    case "query-spark" => new QuerySpark
    case "trials" => new Trials
    case other => throw new IllegalArgumentException(s"unknown workload $other")
  }

  /** SplitMix64 over (seed, round, slot): independent op seeds. */
  def opSeed(seed: Long, round: Int, slot: Int): Long = {
    var x = seed * 0x9e3779b97f4a7c15L + round.toLong * 0xbf58476d1ce4e5b9L + slot + 1
    x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
    x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
    (x ^ (x >>> 31)) & Long.MaxValue
  }

  val Params: AbaeParams = AbaeParams(k = 5)
  val Beta = 1000
  val Alpha = 0.05

  /** The bootstrap's own stream, distinct from the sampler's. */
  def ciRng(op: Op): Random = new Random(op.seed ^ 0x5eedc1L)

  /** `Bootstrap.ci` at β=[[Beta]]; it resamples every draw β times. */
  def bootstrap(draws: Seq[StratumDraws], op: Op, sp: Spans): Bootstrap.Interval = {
    sp.count("core.bootstrap_resamples", Beta.toDouble * draws.map(_.n).sum)
    sp("core.bootstrap_ci")(Bootstrap.ci(draws, Beta, Alpha, ciRng(op)))
  }

  /** Fails the op when an oracle's own count differs from the charge the
    * program reports, so a kernel cannot query more than it bills.
    */
  def checkCalls(what: String, observed: Long, charged: Long): Unit =
    if (observed != charged)
      throw new IllegalStateException(s"$what: oracle answered $observed calls, program charged $charged")

  /** Split collected `(stratum, positive, stat)` rows into per-stratum draws. */
  def drawsOf(rows: Array[org.apache.spark.sql.Row], k: Int): Vector[StratumDraws] =
    Vector.tabulate(k) { s =>
      val mine = rows.filter(_.getInt(0) == s + 1)
      StratumDraws(mine.map(_.getBoolean(1)), mine.map(_.getDouble(2)))
    }
}

/** Analyst path: one `ORACLE LIMIT` query through the Spark engine plus
  * its bootstrap interval, on a cached night-street table.
  */
final class QuerySpark extends Workload {
  import Workload._
  val Sf = 0.1
  val Budget = 10000
  val minRounds = 12
  val warmupRounds = 12
  var df: DataFrame = _
  private var truth = 0.0

  def setUp(spark: SparkSession, clock: SetupClock): Unit = {
    if (df != null) df.unpersist(blocking = true)
    df = clock.time("data.generate_collect") {
      val d = Datasets.generate(spark, Datasets.nightStreet, Sf).cache()
      d.count()
      d
    }
  }

  def fingerprints: Seq[Fingerprint] = {
    val row = df.agg(avg(col("positive").cast("double")), org.apache.spark.sql.functions.count("*")).head()
    truth = df.filter(col("positive")).agg(avg("stat")).head().getDouble(0)
    Seq(Fingerprint(s"night-street(sf=$Sf)", row.getLong(1), Seq(truth), row.getDouble(0)))
  }

  def ops(seed: Long, round: Int): Vector[Op] =
    Vector(Op("query", "night-street", Budget, opSeed(seed, round, 0)))

  def run(op: Op, sp: Spans): OpResult = {
    val res = sp("core.spark_run")(AbaeSpark.run(df, op.budget, Params, op.seed))
    val rows = sp("core.sampled_collect")(res.sampled.select("stratum", "positive", "stat").collect())
    // The sampled rows are exactly the labeled ones: their count is the charge.
    checkCalls("sampled rows", rows.length, res.oracleCalls)
    sp.count("oracle.calls", rows.length)
    val ci = bootstrap(drawsOf(rows, Params.k), op, sp)
    OpResult(op, Array(res.estimate), Array.empty, Array(truth), Some((ci.lo, ci.hi)), Vector(res.oracleCalls))
  }
}

/** Researcher path: one round is a trial of every cell of the figure
  * grids below, run through the local engine on collected datasets.
  */
final class Trials extends Workload {
  import Workload._
  val single = new SingleTrials
  val ext = new ExtTrials
  val minRounds = 4
  val warmupRounds = 1

  def setUp(spark: SparkSession, clock: SetupClock): Unit = {
    single.setUp(spark, clock)
    ext.setUp(spark, clock)
  }

  def fingerprints: Seq[Fingerprint] = single.fingerprints ++ ext.fingerprints

  def ops(seed: Long, round: Int): Vector[Op] = {
    var slot = 0
    def next(kind: String, cell: String, b: Int): Op = { slot += 1; Op(kind, cell, b, opSeed(seed, round, slot)) }
    single.ops(next) ++ ext.ops(next)
  }

  def run(op: Op, sp: Spans): OpResult = if (SingleTrials.Kinds(op.kind)) single.run(op) else ext.run(op, sp)

  /** The JIT compiles `java.util.TimSort`'s merges, which every
    * `ntileIndices` sort runs, with only the branches its first inputs
    * took. A later input that takes a new one (galloping over tied or
    * presorted scores) deoptimizes them, and GroupBy and combine trials run
    * ~1.4× slower from then on. A figure run of hundreds of trials gets
    * there early; a run of a few rounds only sometimes. Sorting such scores
    * first makes every run start from that state.
    */
  override def prime(): Unit = {
    val n = 200000
    val rng = new Random(7)
    val shapes = Seq[Int => Double](
      _ => rng.nextDouble(),
      _ => rng.nextInt(50).toDouble,
      i => i % 1000 + rng.nextDouble() * 1e-3,
      i => -(i % 777).toDouble,
      i => if (i < n / 2) i.toDouble else (i - n / 2) * 0.5 + rng.nextInt(3))
    for (_ <- 1 to 2; f <- shapes) StratifiedLocal.ntileIndices(Array.tabulate(n)(f), Params.k)
  }
}

object SingleTrials {
  val Kinds = Set("estimate", "ci")
}

/** Trials of each kind in one cell of a round. The figure suite
  * (`bench/src/test/scala/repro/bench`) runs 300 trials per cell of ABAE
  * against uniform sampling (Figs. 2–4 and 9), 50 bootstrap trials (Fig. 5,
  * at β=200 where this benchmark uses the paper's β=1000), 100 GroupBy
  * trials (Figs. 7 and 8) and 150 proxy-combination trials (Fig. 12); a
  * round keeps those ratios, scaled down 50 times.
  */
object TrialMix {
  val Estimate = 6
  val Ci = 1
  val GroupBy = 2
  val Combine = 3
}

/** Monte-Carlo kernel behind Figs. 2–5 and 9–11: ABAE against uniform
  * sampling (`estimate`) and ABAE with its bootstrap interval (`ci`), on a
  * large strong-proxy table and a small weak-proxy one.
  */
final class SingleTrials {
  import Workload._
  val Budgets = Seq(1000, 4000, 10000)
  val profiles = Seq(Datasets.nightStreet, Datasets.trec05p)
  val data = scala.collection.mutable.LinkedHashMap.empty[String, (LocalRecords, StratifiedLocal)]

  def setUp(spark: SparkSession, clock: SetupClock): Unit = profiles.foreach { p =>
    val rec = clock.time("data.generate_collect")(Datasets.local(spark, p))
    val strat = clock.time("data.stratify")(StratifiedLocal(rec, Params.k))
    data(p.name) = (rec, strat)
  }

  def fingerprints: Seq[Fingerprint] = data.toSeq.map { case (n, (rec, _)) =>
    Fingerprint(n, rec.n.toLong, Seq(rec.truth), rec.positiveRate)
  }

  /** One round's trials; `next` hands out the op with its seed. */
  def ops(next: (String, String, Int) => Op): Vector[Op] =
    for {
      p <- profiles.toVector
      b <- Budgets
      op <- Vector.fill(TrialMix.Estimate)(next("estimate", p.name, b)) ++
        Vector.fill(TrialMix.Ci)(next("ci", p.name, b))
    } yield op

  /** The untraced trial; [[Traced]] runs the same calls with the samplers
    * and oracles wrapped.
    */
  def run(op: Op): OpResult = {
    val (rec, strat) = data(op.cell)
    val oracle = new CountingOracle(strat)
    val a = Abae.run(strat, oracle, op.budget, Params, op.seed)
    checkCalls("Abae.run", oracle.calls, a.oracleCalls)
    op.kind match {
      case "estimate" =>
        // UniformSampling.run(records, budget, seed) keeps its oracle to
        // itself: its charge is the program's own count.
        val u = UniformSampling.run(rec, op.budget, op.seed)
        estimate(op, rec, a, u)
      case "ci" => interval(op, rec, a, bootstrap(a.draws, op, NoSpans))
    }
  }

  def estimate(op: Op, rec: LocalRecords, a: AbaeResult, u: UniformSampling.Result): OpResult =
    OpResult(op, Array(a.estimate), Array(u.estimate), Array(rec.truth), None, Vector(a.oracleCalls, u.oracleCalls))

  def interval(op: Op, rec: LocalRecords, a: AbaeResult, ci: Bootstrap.Interval): OpResult =
    OpResult(op, Array(a.estimate), Array.empty, Array(rec.truth), Some((ci.lo, ci.hi)), Vector(a.oracleCalls))
}

/** Extension kernels behind Figs. 7, 8 and 12: GroupBy with one oracle and
  * with one oracle per group (each against its uniform baseline), and
  * proxy combination.
  */
final class ExtTrials {
  import Workload._
  val BudgetsPerGroup = Seq(500, 2000)
  val CombineBudgets = Seq(2000, 10000)
  var celeba: GroupedRecords = _
  var synthetic: GroupedRecords = _
  var keywords: (Array[Boolean], Array[Double], Vector[Array[Double]]) = _
  private var keywordTruth = 0.0

  def setUp(spark: SparkSession, clock: SetupClock): Unit = clock.time("data.generate_collect") {
    celeba = ExtDatasets.collectGrouped(ExtDatasets.celebaGroupBy(spark), Vector("gray", "blond"))
    synthetic = ExtDatasets.collectGrouped(ExtDatasets.syntheticGroupByMulti(spark),
      Vector("g1", "g2", "g3", "g4"))
    keywords = ExtDatasets.collectMultiProxy(ExtDatasets.trec05pMultiProxy(spark),
      Vector("proxy_kw1", "proxy_kw2", "proxy_kw3", "proxy_junk"))
    keywordTruth = LocalRecords(keywords._3.head, keywords._1, keywords._2).truth
  }

  def fingerprints: Seq[Fingerprint] = {
    def grouped(n: String, g: GroupedRecords) =
      Fingerprint(n, g.n.toLong, g.truth, g.group.count(_ >= 0).toDouble / g.n)
    Seq(grouped("celeba(hair)", celeba), grouped("synthetic(16/12/9/5%)", synthetic),
      Fingerprint("trec05p(keywords)", keywords._1.length.toLong, Seq(keywordTruth),
        keywords._1.count(identity).toDouble / keywords._1.length))
  }

  /** Every proxy the GroupBy and combine kernels stratify on. */
  def proxies: Seq[Array[Double]] = celeba.proxies ++ synthetic.proxies ++ keywords._3

  /** Fig. 8's rule: the most strata (≤5) that leave ≥100 pilot draws each. */
  def multiK(bpg: Int): Int = math.min(5, math.max(2, (bpg * 0.5 / 100).toInt))

  def ops(next: (String, String, Int) => Op): Vector[Op] =
    BudgetsPerGroup.toVector.flatMap { bpg =>
      Vector.fill(TrialMix.GroupBy)(next("groupby-single", "celeba(hair)", bpg * celeba.g)) ++
        Vector.fill(TrialMix.GroupBy)(next("groupby-multi", "synthetic(16/12/9/5%)", bpg * synthetic.g))
    } ++ CombineBudgets.toVector.flatMap(b => Vector.fill(TrialMix.Combine)(next("combine", "trec05p(keywords)", b)))

  /** These kernels keep their oracles to themselves: the calls recorded
    * are the charge each reports.
    */
  def run(op: Op, sp: Spans): OpResult = op.kind match {
    case "groupby-single" =>
      val a = sp("core.groupby_single")(
        GroupBy.runSingleOracle(celeba, op.budget, GroupBy.GroupByParams(k = 5), op.seed))
      val u = sp("core.groupby_uniform")(GroupBy.uniformSingleOracle(celeba, op.budget, op.seed))
      grouped(op, celeba, a, u, sp)
    case "groupby-multi" =>
      val k = multiK(op.budget / synthetic.g)
      val a = sp("core.groupby_multi")(
        GroupBy.runMultiOracle(synthetic, op.budget, GroupBy.GroupByParams(k = k), op.seed))
      val u = sp("core.groupby_uniform")(GroupBy.uniformMultiOracle(synthetic, op.budget, op.seed))
      grouped(op, synthetic, a, u, sp)
    case "combine" =>
      val (pos, stat, px) = keywords
      val r = sp("core.combine")(ProxyCombiner.run(pos, stat, px, op.budget, Params, op.seed))
      sp.count("oracle.calls", r.oracleCalls)
      OpResult(op, Array(r.estimate), Array.empty, Array(keywordTruth), None, Vector(r.oracleCalls))
  }

  def grouped(op: Op, data: GroupedRecords, a: GroupBy.GroupByResult, u: GroupBy.GroupByResult,
      sp: Spans): OpResult = {
    sp.count("oracle.calls", a.oracleCalls + u.oracleCalls)
    OpResult(op, a.estimates.toArray, u.estimates.toArray, data.truth.toArray, None,
      Vector(a.oracleCalls, u.oracleCalls))
  }
}
