package repro.sampling

import java.util.{BitSet, SplittableRandom}
import repro.data.Stratification
import scala.util.Random

/** A stream of distinct records drawn uniformly without replacement from a
  * population of `populationSize` records — the `SampleFn` of Algorithm 1.
  *
  * ABAE's Stage 2 must extend Stage 1's sample *without* re-drawing
  * Stage-1 records (Algorithm 1, line 16: `R_k^(2) ← R_k^(1) + SampleFn`).
  * A sampler remembers what it has drawn, so successive `next` calls are
  * disjoint and their union is one uniform sample; Stage 2 extending
  * Stage 1 through the same sampler makes sample reuse exact. Every kernel
  * draws through [[PermutationSampler]], the one implementation; the trait
  * is what a caller wraps to observe draws.
  */
trait StratumSampler {
  def populationSize: Int

  /** How many records have been drawn so far. */
  def drawn: Int

  /** Draw `count` further records (capped at the remaining population). */
  def next(count: Int): Array[Int]
}

/** Uniform draws without replacement by rejection against a bitset.
  *
  * A draw takes a uniform position in `[0, positions)`, maps it to its
  * record, and rejects the record if it is already marked in `taken`; an
  * accepted record is marked. Once half of the positions are drawn or
  * excluded, the sampler copies the unmarked records into an array and
  * continues with a partial Fisher–Yates over that remainder, so a draw
  * never expects more than two tries. Every draw is uniform over the
  * records not yet marked, in either phase.
  *
  * The public constructor samples records `[0, populationSize)` with a
  * bitset of its own (one bit per record). [[PermutationSampler.excluding]]
  * samples one stratum less the records a shared bitset already holds.
  * Both read `rng` once, to seed a `SplittableRandom`.
  */
final class PermutationSampler private (
    positions: Int,
    strat: Stratification, // null: position j is record j
    stratum: Int,
    taken: BitSet,
    excluded: Int,
    rng: SplittableRandom,
) extends StratumSampler {

  def this(populationSize: Int, rng: Random) =
    this(populationSize, null, 0, new BitSet(populationSize), 0, new SplittableRandom(rng.nextLong()))

  val populationSize: Int = positions - excluded
  private var pos = 0
  private var rest: Array[Int] = null // the unmarked records, once half are marked

  override def drawn: Int = pos

  private def record(j: Int): Int = if (strat eq null) j else strat.record(stratum, j)

  override def next(count: Int): Array[Int] = {
    val take = math.min(count, populationSize - pos)
    val out = new Array[Int](take)
    var i = 0
    while (i < take) {
      if (rest == null && 2L * (excluded + pos) >= positions) rest = remainder()
      val r =
        if (rest == null) {
          var id = record(rng.nextInt(positions))
          while (taken.get(id)) id = record(rng.nextInt(positions))
          id
        } else {
          // rest(0 until f) are the draws made since the switch.
          val f = rest.length - (populationSize - pos)
          val j = f + rng.nextInt(rest.length - f)
          val id = rest(j)
          rest(j) = rest(f)
          rest(f) = id
          id
        }
      taken.set(r)
      out(i) = r
      pos += 1
      i += 1
    }
    out
  }

  private def remainder(): Array[Int] = {
    val left = new Array[Int](populationSize - pos)
    var n = 0
    var j = 0
    while (j < positions) {
      val id = record(j)
      if (!taken.get(id)) { left(n) = id; n += 1 }
      j += 1
    }
    require(n == left.length, "records of this population were marked by another sampler while it drew")
    left
  }
}

object PermutationSampler {

  /** Stratum `s` of `strat` less the records marked in `taken`, a bitset
    * over record ids that several samplers share: draws are record ids, and
    * each is marked in `taken` as it is drawn. The population is the
    * stratum's unmarked records when the sampler is built; while it draws,
    * no other sampler may mark records of this stratum.
    */
  def excluding(strat: Stratification, s: Int, taken: BitSet, rng: Random): PermutationSampler = {
    val stratumOf = strat.stratumOf
    var excluded = 0
    var i = taken.nextSetBit(0)
    while (i >= 0) {
      if (stratumOf(i) == s) excluded += 1
      i = taken.nextSetBit(i + 1)
    }
    new PermutationSampler(strat.size(s), strat, s, taken, excluded, new SplittableRandom(rng.nextLong()))
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
