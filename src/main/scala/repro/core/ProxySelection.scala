package repro.core

import repro.data.Stratification

/** Proxy selection (§3.4): rank candidate proxies by the MSE each would
  * achieve, estimated with the Proposition-2 perfect-information /
  * deterministic-draw formula `(Σ √p̂_k σ̂_k)² / (N p̂_all²)` plugged with
  * per-stratum estimates from a shared uniform pilot sample. The formula
  * is not exact for the stochastic-draw setting, but (as the paper
  * argues) is a good predictor of *relative* performance, which is all
  * selection needs. The pilot is reused across candidates — selection
  * adds no oracle cost.
  */
object ProxySelection {

  /** Estimated achievable MSE per candidate proxy.
    *
    * @param proxies  full per-record score arrays, one per candidate
    * @param pilotIdx indices of the uniform pilot sample
    * @param pilotPos oracle labels of the pilot (aligned with pilotIdx)
    * @param pilotStat statistic values of the pilot
    * @param k        strata count the query would use
    * @param budget   sampling budget N of the query
    */
  def mseScores(
      proxies: Vector[Array[Double]],
      pilotIdx: Array[Int],
      pilotPos: Array[Boolean],
      pilotStat: Array[Double],
      k: Int,
      budget: Int,
  ): Vector[Double] = {
    val pilot = StratumDraws(pilotPos, pilotStat)
    proxies.map { scores =>
      val est = StratumDraws.byStratum(Stratification(scores, k), pilotIdx, pilot).map(Estimators.fromDraws)
      Estimators.prop2Mse(est.map(_.pHat).toArray, est.map(_.sigmaHat).toArray, budget.toDouble)
    }
  }

  /** Index of the proxy with the lowest estimated MSE. */
  def best(
      proxies: Vector[Array[Double]],
      pilotIdx: Array[Int],
      pilotPos: Array[Boolean],
      pilotStat: Array[Double],
      k: Int,
      budget: Int,
  ): Int = {
    val scores = mseScores(proxies, pilotIdx, pilotPos, pilotStat, k, budget)
    scores.zipWithIndex.minBy(_._1)._2
  }
}
