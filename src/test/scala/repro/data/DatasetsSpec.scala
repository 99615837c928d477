package repro.data

import org.apache.spark.sql.functions.{col, lit, when}
import repro.SparkSpec

class DatasetsSpec extends SparkSpec {

  test("calibrateIntercept hits the target positive rate under the latent model") {
    for (slope <- Seq(1.0, 2.0, 3.0); p <- Seq(0.05, 0.25, 0.5, 0.7)) {
      val b = Datasets.calibrateIntercept(slope, p)
      // Recompute the expectation on an independent grid.
      val grid = (-600 to 600).map(_ / 75.0)
      val w = grid.map(z => math.exp(-z * z / 2))
      val mean = grid.indices.map(i => w(i) / (1.0 + math.exp(-(slope * grid(i) + b)))).sum / w.sum
      assert(math.abs(mean - p) < 0.01, s"slope=$slope target=$p got=$mean")
    }
  }

  test("all six profiles generate with positive rate near target at small scale") {
    for (profile <- Datasets.all) {
      val local = Datasets.local(spark, profile, sf = 0.05)
      assert(math.abs(local.positiveRate - profile.targetP) < 0.05,
        s"${profile.name}: rate=${local.positiveRate} target=${profile.targetP}")
    }
  }

  test("proxy scores are in [0,1] and correlate with the predicate") {
    val local = Datasets.local(spark, Datasets.nightStreet, sf = 0.02)
    assert(local.proxy.forall(p => p >= 0.0 && p <= 1.0))
    val posMean = local.proxy.zip(local.positive).filter(_._2).map(_._1).sum /
      local.positive.count(identity)
    val negMean = local.proxy.zip(local.positive).filterNot(_._2).map(_._1).sum /
      local.positive.count(!_)
    assert(posMean > negMean + 0.2, s"pos=$posMean neg=$negMean")
  }

  test("weak-proxy profiles separate less than strong-proxy profiles") {
    def separation(p: Datasets.Profile): Double = {
      val l = Datasets.local(spark, p, sf = math.min(1.0, 20000.0 / p.size))
      val pos = l.proxy.zip(l.positive).filter(_._2).map(_._1)
      val neg = l.proxy.zip(l.positive).filterNot(_._2).map(_._1)
      pos.sum / pos.length - neg.sum / neg.length
    }
    assert(separation(Datasets.nightStreet) > separation(Datasets.amazonOffice))
  }

  test("count statistics are >= 1 (conditioning on at least one car)") {
    val local = Datasets.local(spark, Datasets.nightStreet, sf = 0.01)
    assert(local.stat.forall(_ >= 1.0))
  }

  test("bernoulli statistics are 0/1") {
    val local = Datasets.local(spark, Datasets.celeba, sf = 0.05)
    assert(local.stat.forall(s => s == 0.0 || s == 1.0))
  }

  test("rating statistics live in [1,5]") {
    val local = Datasets.local(spark, Datasets.amazonPosters, sf = 0.3)
    assert(local.stat.forall(s => s >= 1.0 && s <= 5.0))
  }

  test("generation is deterministic in (profile, sf)") {
    val a = Datasets.local(spark, Datasets.trec05p, sf = 0.02)
    val b = Datasets.local(spark, Datasets.trec05p, sf = 0.02)
    assert(a.proxy.toSeq == b.proxy.toSeq)
    assert(a.positive.toSeq == b.positive.toSeq)
    assert(a.stat.toSeq == b.stat.toSeq)
  }

  test("byName resolves every profile and rejects unknowns") {
    Datasets.all.foreach(p => assert(Datasets.byName(p.name) eq p))
    intercept[RuntimeException] { Datasets.byName("nope") }
  }

  test("statistic variance differs across proxy strata (allocation has signal)") {
    val local = Datasets.local(spark, Datasets.taipei, sf = 0.02)
    val s = StratifiedLocal(local, 5)
    val sigmas = s.strata.map(_.truthSigma)
    assert(sigmas.max > sigmas.min * 1.1, s"sigmas=$sigmas")
  }

  test("top proxy stratum concentrates positives for a strong proxy") {
    val local = Datasets.local(spark, Datasets.nightStreet, sf = 0.02)
    val s = StratifiedLocal(local, 5)
    val ps = s.strata.map(_.truthP)
    // With overall rate p, a 5-stratum split caps the top stratum at 5p;
    // a strong proxy should capture well over half that ceiling.
    assert(ps.last > 3.0 * local.positiveRate, s"p_k=$ps rate=${local.positiveRate}")
    assert(ps.head < 0.05, s"p_k=$ps")
  }

  test("fromDf reads rows in id order whatever the partitioning of its input") {
    val df = Datasets.generate(spark, Datasets.celeba, sf = 0.02)
    val a = LocalRecords.fromDf(df)
    val b = LocalRecords.fromDf(df.repartition(7))
    assert(a.proxy.toSeq == b.proxy.toSeq && a.positive.toSeq == b.positive.toSeq && a.stat.toSeq == b.stat.toSeq)
    val rows = LocalRecords.collectById(df.repartition(7), Seq("proxy"))
    assert(rows.map(_.getLong(0)).toSeq == rows.indices.map(_.toLong))
    assert(rows.map(_.getDouble(1)).toSeq == a.proxy.toSeq)
  }

  test("fromDf and collectById reject a repeated id, naming it, and fromDf a null") {
    val df = Datasets.generate(spark, Datasets.celeba, sf = 0.02)
    val repeated = df.union(df.filter(col("id") === 123))
    val e1 = intercept[IllegalArgumentException](LocalRecords.fromDf(repeated))
    assert(e1.getMessage.contains("id 123 appears more than once"), e1.getMessage)
    val e2 = intercept[IllegalArgumentException](LocalRecords.collectById(repeated, Seq("stat")))
    assert(e2.getMessage.contains("id 123 appears more than once"), e2.getMessage)
    val withNull = df.withColumn("proxy", when(col("id") === 77, lit(null)).otherwise(col("proxy")))
    val e3 = intercept[Exception](LocalRecords.fromDf(withNull))
    assert(e3.getMessage.contains("a null in (id, proxy, positive, stat) at id 77"), e3.getMessage)
  }

  test("idOrder sorts signed ids and leaves ascending ones alone") {
    assert(IdColumns.idOrder(Array(Long.MinValue, -1L, 0L, 5L, Long.MaxValue)).isEmpty)
    assert(IdColumns.idOrder(Array(3L, -2L, Long.MaxValue, Long.MinValue, 0L)).map(_.toSeq) == Some(Seq(3, 1, 4, 0, 2)))
  }
}
