package repro.core

import java.util.BitSet
import repro.data.{GroupedRecords, Oracle}
import repro.sampling.{PermutationSampler, Rng}
import scala.collection.mutable.ArrayBuffer

/** ABAE-GroupBy (§3.2, §4.5): minimax-error sample allocation across the
  * per-group stratifications (Eqs. 10 and 11), solved exactly by
  * [[GroupBy.minimaxShares]].
  */
object GroupBy {

  final case class GroupByParams(k: Int = 5, stage1Frac: Double = 0.5) {
    require(k >= 1, "need at least one stratum")
    require(stage1Frac > 0 && stage1Frac < 1, "stage1Frac must be in (0,1)")
  }

  /** @param estimates   μ̂_g per group
    * @param lambdas     Stage-2 share Λ_l per stratification
    * @param oracleCalls total oracle calls charged
    */
  final case class GroupByResult(
      estimates: Vector[Double],
      lambdas: Array[Double],
      oracleCalls: Long,
  )

  private val VarFloor = 1e-12

  /** §3.2, scenario 1: one oracle labels a record's group key directly,
    * revealing (group key in 0..G-1 or -1, statistic).
    */
  private[core] def keyOracle(data: GroupedRecords): Oracle[(Int, Double)] =
    new Oracle(i => (data.group(i), data.stat(i)))

  /** §3.2, scenario 2: oracle g only reveals whether a record belongs to
    * group g (and its statistic). The charge is the sum of their calls.
    */
  private[core] def memberOracles(data: GroupedRecords): Vector[Oracle[(Boolean, Double)]] =
    Vector.tabulate(data.g)(g => new Oracle(i => (data.group(i) == g, data.stat(i))))

  /** Λ-free part of the estimated MSE of group g's estimator from
    * stratification l (the inner sum of Eqs. 10–11): Prop. 2's
    * `Σ_k ŵ² σ̂² / (p̂ T̂)`, which is [[Estimators.allocationMse]] at N = 1;
    * the modeled error is this over `Λ_l·N2`. Infinite when some stratum
    * has mass (p̂ > 0) but no allocation.
    */
  def baseVariance(cells: IndexedSeq[StratumEstimates], tHat: Array[Double]): Double =
    math.max(Estimators.allocationMse(cells.map(_.pHat).toArray, cells.map(_.sigmaHat).toArray, tHat, 1.0), VarFloor)

  /** Group g's view of draws labeled (group key, statistic): a draw is
    * positive when its key is g.
    */
  private def members(labels: Array[(Int, Double)], g: Int): StratumDraws =
    StratumDraws(labels.map(_._1 == g), labels.map(_._2))

  // ---------------------------------------------------------- minimax Λ

  /** A group's modeled error as a function of its Stage-2 share λ ∈ [0,1]:
    * `V(λ) = Σ_k c_k / (a + λ·b_k)`, with `c_k > 0` and `a + λ·b_k > 0` on
    * (0,1], so V is convex there. It may be +∞ at λ = 0, and `b_k` may be
    * negative, so V need not be monotone.
    */
  private[core] final case class ErrorCurve(c: Array[Double], a: Double, b: Array[Double]) {
    def apply(l: Double): Double = {
      var s = 0.0
      var k = 0
      while (k < c.length) { s += c(k) / (a + l * b(k)); k += 1 }
      s
    }

    /** dV/dλ, non-decreasing in λ. */
    def slope(l: Double): Double = {
      var s = 0.0
      var k = 0
      while (k < c.length) {
        val d = a + l * b(k)
        s -= c(k) * b(k) / (d * d)
        k += 1
      }
      s
    }
  }

  private val MaxBisections = 200
  private val EndpointTol = 1e-12

  /** Shrinks `[x0, x1]`, where `p(x0)` holds and `p(x1)` does not, until no
    * double lies strictly between the two ends (or [[MaxBisections]] halvings).
    */
  private def bracket(x0: Double, x1: Double)(p: Double => Boolean): (Double, Double) = {
    var lo = x0
    var hi = x1
    var mid = 0.5 * (lo + hi)
    var i = 0
    while (i < MaxBisections && mid > lo && mid < hi) {
      if (p(mid)) lo = mid else hi = mid
      mid = 0.5 * (lo + hi)
      i += 1
    }
    (lo, hi)
  }

  /** A minimizer of V on [0,1]. An endpoint whose value is within 1e-12
    * (relative) of the minimum is returned as the minimizer itself, so a
    * vertex share comes out as exactly 0 or 1.
    */
  private def argmin(v: ErrorCurve): Double = {
    val m =
      if (v.slope(0.0) >= 0) 0.0
      else if (v.slope(1.0) <= 0) 1.0
      else bracket(0.0, 1.0)(v.slope(_) < 0)._2
    val vm = v(m)
    if (math.abs(v(1.0) - vm) <= EndpointTol * vm) 1.0
    else if (math.abs(v(0.0) - vm) <= EndpointTol * vm) 0.0
    else m
  }

  /** The exact minimax shares of Eqs. 10–11: Λ on the probability simplex
    * minimizing `max_g V_g(Λ_g)`. Each group's error depends on its own share
    * only, so this bisects on the error level t: group g's sublevel set
    * `{λ ∈ [0,1] : V_g(λ) ≤ t}` is an interval `[lo_g, hi_g]`, and t is
    * feasible iff every interval is non-empty and `Σ lo_g ≤ 1 ≤ Σ hi_g`. At
    * the least feasible t, `Λ_g = (1 − θ)·lo_g + θ·hi_g` with one θ that
    * makes the shares sum to 1 (so θ = 0 or 1 gives the ends exactly).
    *
    *  - When the largest of the groups' own minima is feasible, that group
    *    gets exactly its minimizer (a vertex share is exactly 1.0).
    *  - When any group's error is infinite at every share (no pilot
    *    positives, or no Stage-2 budget to spend), every group gets exactly
    *    1/G.
    */
  private[core] def minimaxShares(curves: IndexedSeq[ErrorCurve]): Array[Double] = {
    val g = curves.length
    val m = curves.map(argmin).toArray
    val vMin = Array.tabulate(g)(j => curves(j)(m(j)))
    if (vMin.exists(_.isInfinite)) return Array.fill(g)(1.0 / g)
    val t0 = vMin.max

    // The sublevel intervals at level t, or None when t is infeasible.
    def at(t: Double): Option[Array[(Double, Double)]] =
      if (vMin.exists(_ > t)) None
      else {
        val iv = Array.tabulate(g) { j =>
          val v = curves(j)
          if (vMin(j) == t) (m(j), m(j))
          else (
            if (v(0.0) <= t) 0.0 else bracket(0.0, m(j))(v(_) > t)._2,
            if (v(1.0) <= t) 1.0 else bracket(m(j), 1.0)(v(_) <= t)._1)
        }
        if (iv.map(_._1).sum <= 1.0 && iv.map(_._2).sum >= 1.0) Some(iv) else None
      }

    val iv = at(t0).getOrElse {
      // Λ = 1/G lies in every sublevel set at this level; doubling only
      // absorbs rounding in the interval ends.
      var hi = curves.map(_(1.0 / g)).max
      while (at(hi).isEmpty) hi *= 2
      at(bracket(t0, hi)(at(_).isEmpty)._2).get
    }
    val sumLo = iv.map(_._1).sum
    val sumHi = iv.map(_._2).sum
    val theta = if (sumHi > sumLo) (1.0 - sumLo) / (sumHi - sumLo) else 0.0
    iv.map { case (lo, hi) => if (lo == hi) lo else (1 - theta) * lo + theta * hi }
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
    val oracle = keyOracle(data)
    val rng = Rng.stream(seed, 0)

    // Every labeled record and its (group key, statistic), in draw order,
    // and the set of labeled records. A record drawn once is drawn in every
    // stratification.
    val labeled = ArrayBuffer.empty[Int]
    val labels = ArrayBuffer.empty[(Int, Double)]
    val taken = new BitSet(n)
    def label(idx: Array[Int]): Unit = idx.foreach { i =>
      labeled += i
      labels += oracle.query(i)
      taken.set(i)
    }

    // Stage 1: one global uniform sample, visible to every stratification.
    val n1 = math.max(g * k, (budget * params.stage1Frac).toInt)
    label(new PermutationSampler(n, rng).next(n1))

    // Per-cell estimates of group l from its own stratification l.
    def cellEst(l: Int): Vector[StratumEstimates] =
      StratumDraws.byStratum(strata(l), labeled.toArray, members(labels.toArray, l)).map(Estimators.fromDraws)

    // Within-stratification allocation: optimal for the stratification's
    // own group (T̂_{l,k} from p̂_{l,l,k}, σ̂_{l,l,k}, pooled-σ̂ repaired).
    val ownEst = Vector.tabulate(g)(cellEst)
    val tHat = ownEst.map(e => Estimators.allocationFromPilot(e))

    val n2 = (budget - oracle.calls).toInt
    // Group tg's modeled error (the Eq. 10 allocation question, adapted to
    // the every-draw-in-every-stratification estimator below) is the
    // ratio-estimator variance over its own stratification's cells,
    // Σ_k ŵ² σ̂² / (p̂ · d_k), where cell k's draw count d_k = N1/K (Stage 1)
    // + Λ_g·N2·T̂_{g,k} (own, concentrated) + (1 − Λ_g)·N2/K (cross draws,
    // which land flat) = (N1 + N2)/K + Λ_g·N2·(T̂_{g,k} − 1/K).
    val curves = Vector.tabulate(g) { tg =>
      val cells = ownEst(tg)
      val pSum = cells.map(_.pHat).sum
      val ks = (0 until k).filter(cells(_).pHat > 0).toArray
      if (ks.isEmpty) ErrorCurve(Array(Double.PositiveInfinity), 1.0, Array(0.0)) // no pilot positives
      else ErrorCurve(
        ks.map { s =>
          val e = cells(s)
          val w = e.pHat / pSum
          w * w * math.max(e.sigmaHat * e.sigmaHat, VarFloor) / e.pHat
        },
        (n1 + n2).toDouble / k,
        ks.map(s => n2 * (tHat(tg)(s) - 1.0 / k)))
    }
    val lambdas = minimaxShares(curves)

    // Stage 2: Λ_l·N2 to stratification l, T̂_{l,k} within it; draws are
    // uniform over each cell's not-yet-labeled records (a sampler over the
    // cell that rejects records in `taken`), so stage unions stay uniform
    // without replacement. Because the single oracle labels the
    // *group key* of every sampled record, each draw is usable by every
    // stratification ("estimates for the other groups for free"): cellEst
    // files it into its cell of all G stratifications, which stays valid
    // because a draw targeted by stratification l lands uniformly within
    // any cell of an independent stratification l'.
    val budgets = Estimators.stage2Sizes(n2, lambdas)
    for (l <- 0 until g) {
      val m = Estimators.stage2Sizes(budgets(l), tHat(l))
      for (s <- 0 until k)
        label(PermutationSampler.excluding(strata(l), s, taken, rng).next(m(s)))
    }

    // Final: group g is estimated from its own stratification, whose
    // cells hold EVERY labeled draw (cross-filed by cellEst). This
    // realizes the paper's "estimates for the other groups for free"
    // reuse; we deviate from its inverse-variance pooling across
    // stratifications because with a shared sample the pooled components
    // are strongly correlated and pooling can only add the convexity
    // penalty of the misaligned stratifications (see DESIGN.md §2).
    val estimates = Vector.tabulate(g)(tg => Estimators.combine(cellEst(tg)))
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
    val oracles = memberOracles(data)
    val samplers = Vector.tabulate(g, k)((l, s) =>
      new PermutationSampler(strata(l).size(s), Rng.stream(seed, l.toLong * k + s + 1)))

    def draw(l: Int, s: Int, m: Int): StratumDraws =
      StratumDraws.label(samplers(l)(s).next(m), j => oracles(l).query(strata(l).record(s, j)))

    // Stage 1: N1/(G·K) per cell, each group charged to its own oracle.
    val n1cell = math.max(1, (budget * params.stage1Frac).toInt / (g * k))
    val stage1 = Vector.tabulate(g, k)((l, s) => draw(l, s, n1cell))
    val est1 = stage1.map(_.map(Estimators.fromDraws))
    val tHat = est1.map(e => Estimators.allocationFromPilot(e))
    val base = Array.tabulate(g)(l => baseVariance(est1(l), tHat(l)))

    val n2 = (budget - oracles.map(_.calls).sum).toInt
    // Eq. 11: group l's modeled error is baseVar(l) / (Λ_l · N2).
    val lambdas = minimaxShares(Vector.tabulate(g)(l => ErrorCurve(Array(base(l)), 0.0, Array(n2.toDouble))))

    // Stage 2 extends each cell's sampler — exact sample reuse.
    val budgets = Estimators.stage2Sizes(n2, lambdas)
    val estimates = Vector.tabulate(g)(l => Abae.finish(stage1(l), budgets(l), draw(l, _, _)).estimate)
    GroupByResult(estimates, lambdas, oracles.map(_.calls).sum)
  }

  // ------------------------------------------------------- uniform baselines

  /** Uniform baseline, single oracle: one uniform sample; each label
    * reveals the group key; per-group mean over members.
    */
  def uniformSingleOracle(data: GroupedRecords, budget: Int, seed: Long): GroupByResult = {
    val oracle = keyOracle(data)
    val labels = new PermutationSampler(data.n, Rng.stream(seed, 7)).next(budget).map(oracle.query)
    GroupByResult(
      Vector.tabulate(data.g)(j => Estimators.fromDraws(members(labels, j)).muHat),
      Array.fill(data.g)(1.0 / data.g),
      oracle.calls)
  }

  /** Uniform baseline, multiple oracles: budget split equally; group g's
    * share is a uniform sample labeled only by oracle g.
    */
  def uniformMultiOracle(data: GroupedRecords, budget: Int, seed: Long): GroupByResult = {
    val oracles = memberOracles(data)
    val per = budget / data.g
    val estimates = Vector.tabulate(data.g) { l =>
      UniformSampling.run(data.n, oracles(l).query, per, Rng.stream(seed, 100 + l)).estimate
    }
    GroupByResult(estimates, Array.fill(data.g)(1.0 / data.g), oracles.map(_.calls).sum)
  }
}
