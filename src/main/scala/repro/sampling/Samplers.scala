package repro.sampling

import scala.collection.mutable
import scala.util.Random

/** A stream of distinct indices drawn uniformly without replacement from
  * `[0, populationSize)` — the `SampleFn` of Algorithm 1.
  *
  * ABAE's Stage 2 must extend Stage 1's sample *without* re-drawing
  * Stage-1 records (Algorithm 1, line 16: `R_k^(2) ← R_k^(1) + SampleFn`).
  * Modeling the sampler as a stateful prefix of one random permutation
  * makes the two stages disjoint by construction and makes sample reuse
  * exact. Both engines draw through [[PermutationSampler]], the one
  * implementation; the trait is what a caller wraps to observe draws.
  */
trait StratumSampler {
  def populationSize: Int

  /** How many indices have been drawn so far. */
  def drawn: Int

  /** Draw `count` further indices (capped at the remaining population). */
  def next(count: Int): Array[Int]
}

/** Lazy partial Fisher–Yates: O(drawn) memory, so Monte-Carlo trial
  * loops over million-record strata never materialize full index arrays.
  */
final class PermutationSampler(val populationSize: Int, rng: Random) extends StratumSampler {
  private val displaced = mutable.HashMap.empty[Int, Int]
  private var pos = 0

  override def drawn: Int = pos

  override def next(count: Int): Array[Int] = {
    val take = math.min(count, populationSize - pos)
    val out = new Array[Int](take)
    var i = 0
    while (i < take) {
      val j = pos + rng.nextInt(populationSize - pos)
      val vj = displaced.getOrElse(j, j)
      val vp = displaced.getOrElse(pos, pos)
      displaced(j) = vp
      displaced.remove(pos) // position pos is consumed; free the entry
      out(i) = vj
      pos += 1
      i += 1
    }
    out
  }
}

/** Seeded RNG helpers shared by the samplers and the bootstrap. */
object Rng {

  /** Independent per-(trial, stratum) RNG streams from one master seed. */
  def stream(masterSeed: Long, streamId: Long): Random =
    new Random(scramble(masterSeed ^ (streamId * 0x9e3779b97f4a7c15L)))

  /** SplitMix64 finalizer — decorrelates sequential seeds. */
  def scramble(x0: Long): Long = {
    var x = x0 + 0x9e3779b97f4a7c15L
    x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
    x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
    x ^ (x >>> 31)
  }
}
