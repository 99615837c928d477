package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{col, greatest, lit, not}

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
  *
  * The rewrite is a Spark projection of a table with columns `id`, `stat`,
  * `proxy_<name>` and `label_<name>` per predicate.
  */
object MultiPred {

  /** The expression's combined proxy score over the `proxy_<name>` columns. */
  def proxyCol(e: PredExpr): Column = e match {
    case Pred(n)   => col(s"proxy_$n")
    case Not(x)    => lit(1.0) - proxyCol(x)
    case And(l, r) => proxyCol(l) * proxyCol(r)
    case Or(l, r)  => greatest(proxyCol(l), proxyCol(r))
  }

  /** The expression's oracle label over the `label_<name>` columns. */
  def labelCol(e: PredExpr): Column = e match {
    case Pred(n)   => col(s"label_$n")
    case Not(x)    => not(labelCol(x))
    case And(l, r) => labelCol(l) && labelCol(r)
    case Or(l, r)  => labelCol(l) || labelCol(r)
  }

  /** Lower a multi-predicate table to the engines' single-predicate
    * `(id, proxy, positive, stat)`: combined proxy, combined label. One
    * oracle invocation on a lowered row evaluates the whole expression
    * (the per-predicate oracles run together on the sampled record).
    * Rejects an expression over a predicate without both columns, naming it.
    */
  def lower(e: PredExpr, df: DataFrame): DataFrame = {
    val missing = e.names.filterNot(n => Seq("proxy_", "label_").forall(p => df.columns.contains(p + n)))
    require(missing.isEmpty, s"expression references unknown predicates: ${missing.mkString(", ")}")
    df.select(col("id"), proxyCol(e).as("proxy"), labelCol(e).as("positive"), col("stat"))
  }
}
