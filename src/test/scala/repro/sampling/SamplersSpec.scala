package repro.sampling

import java.util.BitSet
import org.scalatest.funsuite.AnyFunSuite
import repro.data.Stratification
import scala.util.Random

class SamplersSpec extends AnyFunSuite {

  test("PermutationSampler draws distinct in-range indices") {
    val s = new PermutationSampler(100, new Random(0))
    val idx = s.next(60)
    assert(idx.length == 60)
    assert(idx.toSet.size == 60)
    assert(idx.forall(i => i >= 0 && i < 100))
  }

  test("PermutationSampler stages are disjoint and union is distinct") {
    val s = new PermutationSampler(50, new Random(1))
    val a = s.next(20)
    val b = s.next(20)
    assert((a.toSet & b.toSet).isEmpty)
    assert((a ++ b).toSet.size == 40)
  }

  test("PermutationSampler exhausts the population exactly") {
    val s = new PermutationSampler(30, new Random(2))
    val all = s.next(30)
    assert(all.toSet == (0 until 30).toSet)
    assert(s.next(5).isEmpty)
    assert(s.drawn == 30)
  }

  test("PermutationSampler caps requests beyond the remaining population") {
    val s = new PermutationSampler(10, new Random(3))
    assert(s.next(7).length == 7)
    assert(s.next(7).length == 3)
  }

  test("PermutationSampler is deterministic in the seed") {
    def sample(seed: Long) = new PermutationSampler(1000, new Random(seed)).next(100).toSeq
    assert(sample(42) == sample(42))
    assert(sample(42) != sample(43))
  }

  test("PermutationSampler prefix is uniform (frequency check)") {
    // Each of 10 indices should appear in a 3-of-10 sample with p = 0.3.
    val counts = new Array[Int](10)
    val trials = 20000
    for (t <- 0 until trials) {
      new PermutationSampler(10, new Random(t)).next(3).foreach(counts(_) += 1)
    }
    counts.foreach { c =>
      val freq = c.toDouble / trials
      assert(math.abs(freq - 0.3) < 0.02, s"frequencies ${counts.toSeq}")
    }
  }

  test("PermutationSampler memory is one bit per record") {
    // A 10M-record population with 1,000 draws allocates its 1.25 MB bitset,
    // not an O(n)-word array (40 MB of ints).
    val bean = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    val thread = Thread.currentThread.getId
    val before = bean.getThreadAllocatedBytes(thread)
    val s = new PermutationSampler(10_000_000, new Random(4))
    val idx = s.next(1000)
    val allocated = bean.getThreadAllocatedBytes(thread) - before
    assert(idx.toSet.size == 1000)
    assert(allocated < 3_000_000L, s"allocated $allocated bytes")
  }

  /** Chi-squared statistic of `counts` against equal expected counts. */
  private def chiSquared(counts: Array[Int]): Double = {
    val expected = counts.sum.toDouble / counts.length
    counts.map(c => (c - expected) * (c - expected) / expected).sum
  }

  test("PermutationSampler switches from rejection to the remainder without losing a draw") {
    val gen = new Random(21)
    for (n <- 1 to 64; t <- 0 until 5) {
      val s = new PermutationSampler(n, new Random(1000L * n + t))
      // Call sizes that step over the half-way switch at random points.
      val calls = scala.collection.mutable.ArrayBuffer.empty[Array[Int]]
      while (s.drawn < n) calls += s.next(1 + gen.nextInt(math.max(1, n / 3)))
      val all = calls.flatten
      assert(all.forall(i => i >= 0 && i < n), s"n=$n: out of range")
      assert(all.distinct.length == all.length, s"n=$n: repeated draw")
      assert(all.sorted.toSeq == (0 until n), s"n=$n: not exhausted exactly")
      assert(s.next(3).isEmpty && s.drawn == n)
    }
  }

  test("draws after the switch are uniform over the records left (chi-squared, fixed seeds)") {
    // The 9th draw of 16 comes from the remainder; given the first 8, it is
    // uniform over the other 8, so its rank among them is uniform on 0..7.
    val n = 16
    val trials = 16000
    val ranks = new Array[Int](8)
    for (t <- 0 until trials) {
      val s = new PermutationSampler(n, new Random(t))
      val first = s.next(8).toSet
      val left = (0 until n).filterNot(first)
      ranks(left.indexOf(s.next(1).head)) += 1
    }
    // 24.32 is the 0.999 quantile of chi-squared with 7 degrees of freedom.
    assert(chiSquared(ranks) < 24.32, s"ranks ${ranks.toSeq}")
  }

  /** One stratum of `k` over records `0 until n` (proxy `p(i)`), less the
    * records in `taken`, the way Stage 2 draws outside a pilot.
    */
  private def view(p: Array[Double], k: Int, s: Int, taken: BitSet, rng: Random): (Stratification, PermutationSampler) = {
    val strat = Stratification(p, k)
    (strat, PermutationSampler.excluding(strat, taken)(s, rng))
  }

  /** A draw of `m` from records `0 until n` less those `exclude` holds. */
  private def poolSample(n: Int, exclude: Int => Boolean, m: Int, rng: Random): Array[Int] = {
    val taken = new BitSet(n)
    (0 until n).filter(exclude).foreach(taken.set)
    view(Array.fill(n)(0.0), 1, 0, taken, rng)._2.next(m)
  }

  test("an exclusion view draws distinct unlabeled records of its stratum, capped at their count, and marks them") {
    val gen = new Random(17)
    for (t <- 0 until 3000) {
      val n = gen.nextInt(60)
      val k = 1 + gen.nextInt(4)
      val p = Array.fill(n)(gen.nextInt(5).toDouble)
      val taken = new BitSet(n)
      t % 3 match {
        case 0 => taken.set(0, n) // everything labeled
        case 1 => taken.set(0, gen.nextInt(n + 1))
        case _ => (0 until n).filter(_ => gen.nextBoolean()).foreach(taken.set)
      }
      val before = taken.clone().asInstanceOf[BitSet]
      val s = gen.nextInt(k)
      val (strat, sampler) = view(p, k, s, taken, new Random(t))
      val eligible = strat.indices(s).filterNot(before.get)
      assert(sampler.populationSize == eligible.length)
      val m = gen.nextInt(eligible.length + 10) // m > eligible is common
      val got = sampler.next(m)
      assert(got.length == math.min(m, eligible.length))
      assert(got.distinct.length == got.length)
      assert(got.forall(eligible.contains), s"t=$t: drew a labeled record or one outside stratum $s")
      val after = before.clone().asInstanceOf[BitSet]
      got.foreach(after.set)
      assert(taken == after, s"t=$t: the shared bitset does not mark exactly the draws")
    }
  }

  test("a shared-bitset Stage 2 never returns a record the pilot labeled") {
    val n = 2000
    val gen = new Random(23)
    val strats = Vector.fill(3)(Stratification(Array.fill(n)(gen.nextInt(40).toDouble), 5))
    for (seed <- 0 until 20) {
      val rng = new Random(seed)
      val pilot = new PermutationSampler(n, rng).next(300)
      val taken = new BitSet(n)
      pilot.foreach(taken.set)
      val labeled = scala.collection.mutable.Set.empty[Int] ++ pilot
      // Stage 2 over three stratifications in turn, as single-oracle GroupBy draws.
      // Each stratification's marked records are counted once, before its
      // first stratum draws.
      for (strat <- strats) {
        val cells = PermutationSampler.excluding(strat, taken)
        for (s <- 0 until 5) {
          val sampler = cells(s, rng)
          assert(sampler.populationSize == strat.indices(s).count(!taken.get(_)), s"seed $seed: stale count")
          val got = sampler.next(150)
          assert(got.forall(!labeled(_)), s"seed $seed: a record was labeled twice")
          labeled ++= got
        }
      }
      assert((0 until n).filter(taken.get).toSet == labeled)
    }
  }

  test("PoolSampling draws only from the eligible pool") {
    val got = poolSample(100, _ < 50, 30, new Random(5))
    assert(got.length == 30)
    assert(got.forall(i => i >= 50))
    assert(got.toSet.size == 30)
  }

  test("PoolSampling caps at the eligible count") {
    val got = poolSample(10, _ < 8, 5, new Random(6))
    assert(got.sorted.toSeq == Seq(8, 9))
  }

  test("PoolSampling of everything excluded is empty") {
    assert(poolSample(5, _ => true, 3, new Random(7)).isEmpty)
  }

  test("PoolSampling is uniform over the eligible set") {
    val counts = new Array[Int](6)
    val trials = 12000
    for (t <- 0 until trials)
      poolSample(6, _ == 0, 2, new Random(t)).foreach(counts(_) += 1)
    assert(counts(0) == 0)
    (1 to 5).foreach { i =>
      val freq = counts(i).toDouble / trials
      assert(math.abs(freq - 0.4) < 0.03, s"counts ${counts.toSeq}")
    }
    // Records 4..11 of 20 labeled: the view starts past the switch, and its
    // draws are uniform over the 12 records left.
    val left = new Array[Int](20)
    for (t <- 0 until trials) poolSample(20, i => i >= 4 && i < 12, 3, new Random(t)).foreach(left(_) += 1)
    assert(left.slice(4, 12).forall(_ == 0))
    // 31.26 is the 0.999 quantile of chi-squared with 11 degrees of freedom.
    val eligible = left.take(4) ++ left.drop(12)
    assert(chiSquared(eligible) < 31.26, s"counts ${left.toSeq}")
  }

  test("Rng.stream gives decorrelated streams per id") {
    val a = Rng.stream(99, 0).nextLong()
    val b = Rng.stream(99, 1).nextLong()
    val a2 = Rng.stream(99, 0).nextLong()
    assert(a == a2)
    assert(a != b)
  }

  test("Rng.scramble is a bijection-like mixer (no obvious collisions)") {
    val outs = (0L until 10000L).map(Rng.scramble).toSet
    assert(outs.size == 10000)
  }
}
