package repro.core

import repro.data.{LocalRecords, MultiPredRecords}

/** Boolean predicate expression over named expensive predicates —
  * ABAE-MultiPred's input (§3.3).
  */
sealed trait PredExpr {
  def names: Set[String] = this match {
    case Pred(n)    => Set(n)
    case Not(e)     => e.names
    case And(l, r)  => l.names ++ r.names
    case Or(l, r)   => l.names ++ r.names
  }
}
final case class Pred(name: String) extends PredExpr
final case class Not(e: PredExpr) extends PredExpr
final case class And(l: PredExpr, r: PredExpr) extends PredExpr
final case class Or(l: PredExpr, r: PredExpr) extends PredExpr

/** ABAE-MultiPred (§3.3): supports arbitrary negation / conjunction /
  * disjunction of expensive predicates by combining their per-record
  * proxy scores into a single score —
  *
  *   - negation     → `1 − s`
  *   - conjunction  → product
  *   - disjunction  → max
  *
  * — then running single-predicate ABAE on the combined proxy. The
  * combination is exact when the proxies are perfectly calibrated and
  * sharp; otherwise it degrades gracefully (correctness never depends on
  * proxy quality).
  */
object MultiPred {

  /** Combine one record's proxy scores under the expression. */
  def combineProxy(e: PredExpr, scores: String => Double): Double = e match {
    case Pred(n)   => scores(n)
    case Not(x)    => 1.0 - combineProxy(x, scores)
    case And(l, r) => combineProxy(l, scores) * combineProxy(r, scores)
    case Or(l, r)  => math.max(combineProxy(l, scores), combineProxy(r, scores))
  }

  /** Ground-truth evaluation of the expression on oracle labels. */
  def evalOracle(e: PredExpr, labels: String => Boolean): Boolean = e match {
    case Pred(n)   => labels(n)
    case Not(x)    => !evalOracle(x, labels)
    case And(l, r) => evalOracle(l, labels) && evalOracle(r, labels)
    case Or(l, r)  => evalOracle(l, labels) || evalOracle(r, labels)
  }

  /** Lower a multi-predicate dataset to single-predicate form: combined
    * proxy score, combined oracle label. One oracle invocation on the
    * lowered records evaluates the whole expression (the per-predicate
    * oracles run together on the sampled record).
    */
  def lower(e: PredExpr, records: MultiPredRecords): LocalRecords = {
    val missing = e.names -- records.names.toSet
    require(missing.isEmpty, s"expression references unknown predicates: $missing")
    val n = records.n
    val proxy = new Array[Double](n)
    val positive = new Array[Boolean](n)
    var i = 0
    while (i < n) {
      proxy(i) = combineProxy(e, nm => records.proxies(nm)(i))
      positive(i) = evalOracle(e, nm => records.labels(nm)(i))
      i += 1
    }
    LocalRecords(proxy, positive, records.stat.clone())
  }
}
