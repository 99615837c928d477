package repro.core

import repro.data.GroupedRecords
import repro.optim.NelderMead
import repro.sampling.{PermutationSampler, Rng}
import scala.collection.mutable.ArrayBuffer

/** Oracle that maps a record directly to its group key (§3.2, scenario 1:
  * "a single oracle determines the group key directly"). Each invocation
  * costs 1; callers keep the labels they need again.
  */
final class SingleGroupOracle(data: GroupedRecords) {
  private var invocations: Long = 0L
  def calls: Long = invocations

  /** Returns (group key in 0..G-1 or -1, statistic). */
  def query(i: Int): (Int, Double) = {
    invocations += 1
    (data.group(i), data.stat(i))
  }
}

/** One oracle per group (§3.2, scenario 2): `query(g, i)` only reveals
  * whether record `i` belongs to group `g`. Each invocation costs 1.
  */
final class PerGroupOracle(data: GroupedRecords) {
  private var invocations: Long = 0L
  def calls: Long = invocations

  def query(g: Int, i: Int): (Boolean, Double) = {
    invocations += 1
    (data.group(i) == g, data.stat(i))
  }
}

/** ABAE-GroupBy (§3.2, §4.5): minimax-error sample allocation across the
  * per-group stratifications, solved with Nelder–Mead over the
  * probability simplex (Eqs. 10 and 11).
  */
object GroupBy {

  final case class GroupByParams(k: Int = 5, stage1Frac: Double = 0.5) {
    require(k >= 1, "need at least one stratum")
    require(stage1Frac > 0 && stage1Frac < 1, "stage1Frac must be in (0,1)")
  }

  /** @param estimates   μ̂_g per group
    * @param lambdas     Stage-2 share Λ_l per stratification
    * @param oracleCalls total oracle invocations charged
    */
  final case class GroupByResult(
      estimates: Vector[Double],
      lambdas: Array[Double],
      oracleCalls: Long,
  )

  private val VarFloor = 1e-12

  /** Λ-free part of the estimated MSE of group g's estimator from
    * stratification l (the inner sum of Eqs. 10–11):
    * `Σ_k ŵ² σ̂² / (p̂ T̂)`; the modeled error is this over `Λ_l·N2`.
    * Infinite when some stratum has mass (p̂ > 0) but no allocation.
    */
  def baseVariance(cells: IndexedSeq[StratumEstimates], tHat: Array[Double]): Double = {
    val pSum = cells.map(_.pHat).sum
    if (pSum == 0.0) return Double.PositiveInfinity // no information about this group
    var s = 0.0
    var k = 0
    while (k < cells.length) {
      val e = cells(k)
      val w = e.pHat / pSum
      if (w > 0) {
        if (tHat(k) <= 0) return Double.PositiveInfinity
        s += w * w * e.sigmaHat * e.sigmaHat / (e.pHat * tHat(k))
      }
      k += 1
    }
    math.max(s, VarFloor)
  }

  // ------------------------------------------------------------ single oracle

  /** Single-oracle ABAE-GroupBy. Stage 1 samples uniformly (every label
    * reveals the full group key, so it pilots all G stratifications at
    * once); Stage 2 splits Λ·N2 across stratifications by minimizing an
    * Eq. 10 minimax objective, then allocates within each stratification
    * by T̂. Each group is estimated from its own stratification, without
    * pooling (DESIGN.md §3b, deviation 2).
    */
  def runSingleOracle(
      data: GroupedRecords,
      budget: Int,
      params: GroupByParams,
      seed: Long,
  ): GroupByResult = {
    val g = data.g
    val k = params.k
    val n = data.n
    require(budget >= 2 * g * k, s"budget $budget too small for $g groups × $k strata")

    val strata = data.strata(k)
    val oracle = new SingleGroupOracle(data)
    val rng = Rng.stream(seed, 0)

    // Every labeled record and its (group key, statistic), in draw order.
    // A record drawn once is drawn in every stratification.
    val labeled = ArrayBuffer.empty[Int]
    val labels = ArrayBuffer.empty[(Int, Double)]
    val drawn = new Array[Boolean](n)
    def label(idx: Array[Int]): Unit = idx.foreach { i =>
      labeled += i
      labels += oracle.query(i)
      drawn(i) = true
    }

    // Stage 1: one global uniform sample, visible to every stratification.
    val n1 = math.max(g * k, (budget * params.stage1Frac).toInt)
    label(new PermutationSampler(n, rng).next(n1))

    // Per-cell estimates of group `targetG` from stratification l.
    def cellEst(l: Int, targetG: Int): Vector[StratumEstimates] = {
      val d = StratumDraws(labels.map(_._1 == targetG).toArray, labels.map(_._2).toArray)
      StratumDraws.byStratum(strata(l), labeled.toArray, d).map(Estimators.fromDraws)
    }

    // Within-stratification allocation: optimal for the stratification's
    // own group (T̂_{l,k} from p̂_{l,l,k}, σ̂_{l,l,k}, pooled-σ̂ repaired).
    val ownEst = Vector.tabulate(g)(l => cellEst(l, l))
    val tHat = ownEst.map(e => Estimators.allocationFromPilot(e))

    val n2 = (budget - oracle.calls).toInt
    val n1PerCell = n1.toDouble / k
    // Minimax objective (the Eq. 10 allocation question, adapted to the
    // every-draw-in-every-stratification estimator below): group g's
    // modeled error is the ratio-estimator variance over its own
    // stratification's cells, Σ_k ŵ² σ̂² / (p̂ · d_k(Λ)), where cell k's
    // draw count d_k(Λ) = Stage-1 share + Λ_g·N2·T̂_{g,k} (own,
    // concentrated) + Σ_{l≠g} Λ_l·N2 / K (cross draws, which land flat).
    def objective(lambda: Array[Double]): Double = {
      var worst = 0.0
      var tg = 0
      while (tg < g) {
        val cells = ownEst(tg)
        val pSum = cells.map(_.pHat).sum
        val crossFlat = (1.0 - lambda(tg)) * n2 / k
        var v = 0.0
        var s = 0
        while (s < k) {
          val e = cells(s)
          if (e.pHat > 0) {
            val w = e.pHat / pSum
            val d = n1PerCell + lambda(tg) * n2 * tHat(tg)(s) + crossFlat
            v += w * w * math.max(e.sigmaHat * e.sigmaHat, VarFloor) / (e.pHat * d)
          }
          s += 1
        }
        val err = if (pSum == 0) Double.MaxValue else v
        if (err > worst) worst = err
        tg += 1
      }
      worst
    }
    val lambdas = NelderMead.minimizeOnSimplex(objective, g).point

    // Stage 2: Λ_l·N2 to stratification l, T̂_{l,k} within it; draws are
    // uniform over each cell's not-yet-drawn records so stage unions stay
    // uniform without replacement. Because the single oracle labels the
    // *group key* of every sampled record, each draw is usable by every
    // stratification ("estimates for the other groups for free"): cellEst
    // files it into its cell of all G stratifications, which stays valid
    // because a draw targeted by stratification l lands uniformly within
    // any cell of an independent stratification l'.
    val budgets = Estimators.stage2Sizes(n2, lambdas)
    for (l <- 0 until g) {
      val m = Estimators.stage2Sizes(budgets(l), tHat(l))
      for (s <- 0 until k) {
        val pool = strata(l).indices(s).filterNot(drawn(_))
        label(new PermutationSampler(pool.length, rng).next(m(s)).map(pool(_)))
      }
    }

    // Final: group g is estimated from its own stratification, whose
    // cells hold EVERY labeled draw (cross-filed by cellEst). This
    // realizes the paper's "estimates for the other groups for free"
    // reuse; we deviate from its inverse-variance pooling across
    // stratifications because with a shared sample the pooled components
    // are strongly correlated and pooling can only add the convexity
    // penalty of the misaligned stratifications (see DESIGN.md §2).
    val estimates = Vector.tabulate(g)(tg => Estimators.combine(cellEst(tg, tg)))
    GroupByResult(estimates, lambdas, oracle.calls)
  }

  // ------------------------------------------------------------ multi oracle

  /** Multi-oracle ABAE-GroupBy: G independent single-predicate ABAEs,
    * with Stage-2 budget split across groups by the Eq. 11 minimax
    * objective. Oracle g is only applied to samples from stratification g.
    */
  def runMultiOracle(
      data: GroupedRecords,
      budget: Int,
      params: GroupByParams,
      seed: Long,
  ): GroupByResult = {
    val g = data.g
    val k = params.k
    require(budget >= 2 * g * k, s"budget $budget too small for $g groups × $k strata")

    val strata = data.strata(k)
    val oracle = new PerGroupOracle(data)
    val samplers = Vector.tabulate(g, k)((l, s) =>
      new PermutationSampler(strata(l).size(s), Rng.stream(seed, l.toLong * k + s + 1)))

    def draw(l: Int, s: Int, m: Int): StratumDraws =
      StratumDraws.label(samplers(l)(s).next(m), j => oracle.query(l, strata(l).record(s, j)))

    // Stage 1: N1/(G·K) per cell, each group charged to its own oracle.
    val n1cell = math.max(1, (budget * params.stage1Frac).toInt / (g * k))
    val stage1 = Vector.tabulate(g, k)((l, s) => draw(l, s, n1cell))
    val est1 = stage1.map(_.map(Estimators.fromDraws))
    val tHat = est1.map(e => Estimators.allocationFromPilot(e))
    val base = Array.tabulate(g)(l => baseVariance(est1(l), tHat(l)))

    val n2 = (budget - oracle.calls).toInt
    // Eq. 11 objective: max_g baseVar(g) / (Λ_g · N2).
    def objective(lambda: Array[Double]): Double = {
      var worst = 0.0
      var l = 0
      while (l < g) {
        val v =
          if (base(l).isInfinite) Double.MaxValue
          else if (lambda(l) <= 0) Double.MaxValue
          else base(l) / (lambda(l) * n2)
        if (v > worst) worst = v
        l += 1
      }
      worst
    }
    val lambdas = NelderMead.minimizeOnSimplex(objective, g).point

    // Stage 2 extends each cell's permutation — exact sample reuse.
    val budgets = Estimators.stage2Sizes(n2, lambdas)
    val estimates = Vector.tabulate(g)(l => Abae.finish(stage1(l), budgets(l), draw(l, _, _)).estimate)
    GroupByResult(estimates, lambdas, oracle.calls)
  }

  // ------------------------------------------------------- uniform baselines

  /** Uniform baseline, single oracle: one uniform sample; each label
    * reveals the group key; per-group mean over members.
    */
  def uniformSingleOracle(data: GroupedRecords, budget: Int, seed: Long): GroupByResult = {
    val oracle = new SingleGroupOracle(data)
    val idx = new PermutationSampler(data.n, Rng.stream(seed, 7)).next(budget)
    val sums = new Array[Double](data.g)
    val counts = new Array[Int](data.g)
    idx.foreach { i =>
      val (gi, st) = oracle.query(i)
      if (gi >= 0) { sums(gi) += st; counts(gi) += 1 }
    }
    GroupByResult(
      Vector.tabulate(data.g)(j => if (counts(j) == 0) 0.0 else sums(j) / counts(j)),
      Array.fill(data.g)(1.0 / data.g),
      oracle.calls)
  }

  /** Uniform baseline, multiple oracles: budget split equally; group g's
    * share is a uniform sample labeled only by oracle g.
    */
  def uniformMultiOracle(data: GroupedRecords, budget: Int, seed: Long): GroupByResult = {
    val oracle = new PerGroupOracle(data)
    val per = budget / data.g
    val estimates = Vector.tabulate(data.g) { l =>
      UniformSampling.run(data.n, oracle.query(l, _), per, Rng.stream(seed, 100 + l)).estimate
    }
    GroupByResult(estimates, Array.fill(data.g)(1.0 / data.g), oracle.calls)
  }
}
