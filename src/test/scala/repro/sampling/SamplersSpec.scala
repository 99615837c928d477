package repro.sampling

import org.scalatest.funsuite.AnyFunSuite
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

  test("PermutationSampler memory stays bounded by draws (lazy Fisher-Yates)") {
    // A 10M-element population with 10 draws must not allocate O(n).
    val s = new PermutationSampler(10_000_000, new Random(4))
    val idx = s.next(10)
    assert(idx.toSet.size == 10)
  }

  /** Stage-2 draws outside an earlier sample, as GroupBy's single-oracle
    * runner and ProxyCombiner take them: a permutation prefix of the pool
    * minus the excluded records.
    */
  private def poolSample(pool: Array[Int], exclude: Int => Boolean, m: Int, rng: Random): Array[Int] = {
    val eligible = pool.filterNot(exclude)
    new PermutationSampler(eligible.length, rng).next(m).map(eligible(_))
  }

  /** The former `PoolSampling.sample`: partial Fisher–Yates on a filtered
    * copy of the pool. Kept as the reference [[poolSample]] must match.
    */
  private def poolSamplingReference(pool: Array[Int], exclude: Int => Boolean, m: Int, rng: Random): Array[Int] = {
    val eligible = pool.filterNot(exclude)
    val take = math.min(m, eligible.length)
    var i = 0
    while (i < take) {
      val j = i + rng.nextInt(eligible.length - i)
      val t = eligible(i); eligible(i) = eligible(j); eligible(j) = t
      i += 1
    }
    java.util.Arrays.copyOfRange(eligible, 0, take)
  }

  test("pool sampling through PermutationSampler equals the PoolSampling reference, RNG state included") {
    val gen = new Random(17)
    for (t <- 0 until 3000) {
      val n = gen.nextInt(60)
      val pool = Array.fill(n)(gen.nextInt(200))
      val excluded = t % 3 match {
        case 0 => (_: Int) => true // everything excluded
        case 1 => { val cut = gen.nextInt(200); (i: Int) => i < cut }
        case _ => { val bits = Array.fill(200)(gen.nextBoolean()); (i: Int) => bits(i) }
      }
      val m = gen.nextInt(n + 10) // m > eligible is common
      val (a, b) = (new Random(t), new Random(t))
      assert(poolSample(pool, excluded, m, a).toSeq == poolSamplingReference(pool, excluded, m, b).toSeq)
      assert(a.nextLong() == b.nextLong())
    }
  }

  test("PoolSampling draws only from the eligible pool") {
    val pool = Array.range(0, 100)
    val excluded = (0 until 50).toSet
    val got = poolSample(pool, excluded.contains, 30, new Random(5))
    assert(got.length == 30)
    assert(got.forall(i => i >= 50))
    assert(got.toSet.size == 30)
  }

  test("PoolSampling caps at the eligible count") {
    val pool = Array.range(0, 10)
    val got = poolSample(pool, _ < 8, 5, new Random(6))
    assert(got.sorted.toSeq == Seq(8, 9))
  }

  test("PoolSampling of everything excluded is empty") {
    assert(poolSample(Array.range(0, 5), _ => true, 3, new Random(7)).isEmpty)
  }

  test("PoolSampling is uniform over the eligible set") {
    val pool = Array.range(0, 6)
    val counts = new Array[Int](6)
    val trials = 12000
    for (t <- 0 until trials)
      poolSample(pool, _ == 0, 2, new Random(t)).foreach(counts(_) += 1)
    assert(counts(0) == 0)
    (1 to 5).foreach { i =>
      val freq = counts(i).toDouble / trials
      assert(math.abs(freq - 0.4) < 0.03, s"counts ${counts.toSeq}")
    }
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
