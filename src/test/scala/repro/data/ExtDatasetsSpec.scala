package repro.data

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core.{MultiPred, Pred}

class ExtDatasetsSpec extends SparkSpec {

  /** Predicate `name`'s own `(proxy, label, stat)`, lowered as a one-predicate query. */
  private def single(df: DataFrame, name: String): LocalRecords = LocalRecords.fromDf(MultiPred.lower(Pred(name), df))

  test("nightStreetMultiPred has the paper's combined positive rate ~0.17") {
    val df = ExtDatasets.nightStreetMultiPred(spark, sf = 0.03)
    val (cars, red) = (single(df, "cars"), single(df, "red"))
    val combined = (0 until cars.n).count(i => cars.positive(i) && red.positive(i))
    val rate = combined.toDouble / cars.n
    assert(math.abs(rate - 0.17) < 0.03, s"rate=$rate")
  }

  test("multipred proxies are in [0,1] and correlate with their own labels") {
    val df = ExtDatasets.nightStreetMultiPred(spark, sf = 0.02)
    for (nm <- Seq("cars", "red")) {
      val rec = single(df, nm)
      val proxy = rec.proxy
      val label = rec.positive
      assert(proxy.forall(p => p >= 0 && p <= 1))
      val pos = proxy.zip(label).filter(_._2).map(_._1)
      val neg = proxy.zip(label).filterNot(_._2).map(_._1)
      assert(pos.sum / pos.length > neg.sum / neg.length + 0.15, s"proxy $nm uninformative")
    }
  }

  test("syntheticMultiPred draws per-stratum rates and is deterministic") {
    val a = ExtDatasets.syntheticMultiPred(spark, rows = 20000)
    val b = ExtDatasets.syntheticMultiPred(spark, rows = 20000)
    val aa = single(a, "a")
    assert(aa.positive.toSeq == single(b, "a").positive.toSeq)
    assert(single(a, "b").proxy.toSeq == single(b, "b").proxy.toSeq)
    val rate = aa.positive.count(identity).toDouble / aa.n
    assert(rate > 0.02 && rate < 0.8, s"rate=$rate")
  }

  test("groupBy assigns each record to at most one group with target rates") {
    val rates = Vector(0.16, 0.12, 0.09, 0.05)
    val df = ExtDatasets.syntheticGroupByMulti(spark, rows = 50000)
    val rec = ExtDatasets.collectGrouped(df, Vector("g0", "g1", "g2", "g3"))
    assert(rec.group.forall(g => g >= -1 && g < 4))
    for (g <- 0 until 4) {
      val rate = rec.group.count(_ == g).toDouble / rec.n
      assert(math.abs(rate - rates(g)) < 0.02, s"group $g rate=$rate target=${rates(g)}")
    }
  }

  test("groupBy single-oracle synthetic uses the paper's 3.3-3.5% rates") {
    val rates = Vector(0.033, 0.033, 0.034, 0.035)
    val rec = ExtDatasets.collectGrouped(
      ExtDatasets.syntheticGroupBySingle(spark, rows = 60000), Vector("a", "b", "c", "d"))
    for (g <- 0 until 4) {
      val rate = rec.group.count(_ == g).toDouble / rec.n
      assert(math.abs(rate - rates(g)) < 0.01, s"group $g rate=$rate")
    }
  }

  test("groupBy statistic means differ by group as configured") {
    val rec = ExtDatasets.collectGrouped(
      ExtDatasets.syntheticGroupByMulti(spark, rows = 80000), Vector("a", "b", "c", "d"))
    val truth = rec.truth
    // configured means 1, 2, 3, 4
    for (g <- 0 until 4)
      assert(math.abs(truth(g) - (g + 1.0)) < 0.15, s"group $g mean=${truth(g)}")
  }

  test("groupBy proxies predict membership (members score higher)") {
    val rec = ExtDatasets.collectGrouped(
      ExtDatasets.syntheticGroupByMulti(spark, rows = 50000), Vector("a", "b", "c", "d"))
    for (g <- 0 until 4) {
      val in = (0 until rec.n).filter(rec.group(_) == g).map(rec.proxies(g))
      val out = (0 until rec.n).filter(rec.group(_) != g).map(rec.proxies(g))
      assert(in.sum / in.size > out.sum / out.size, s"group $g proxy uninformative")
    }
  }

  test("celebaGroupBy has binary smiling stat and two groups") {
    val rec = ExtDatasets.collectGrouped(
      ExtDatasets.celebaGroupBy(spark, sf = 0.2), Vector("gray", "blond"))
    assert(rec.stat.forall(s => s == 0.0 || s == 1.0))
    val grayRate = rec.group.count(_ == 0).toDouble / rec.n
    val blondRate = rec.group.count(_ == 1).toDouble / rec.n
    assert(math.abs(grayRate - 0.04) < 0.02, s"gray=$grayRate")
    assert(math.abs(blondRate - 0.15) < 0.03, s"blond=$blondRate")
    // smiling rate differs by group (0.35 vs 0.55)
    assert(rec.truth(1) > rec.truth(0) + 0.1)
  }

  test("trec05pMultiProxy proxy quality degrades kw1 > kw2 > kw3 > junk") {
    val (pos, _, proxies) = ExtDatasets.collectMultiProxy(
      ExtDatasets.trec05pMultiProxy(spark, sf = 0.5),
      Vector("proxy_kw1", "proxy_kw2", "proxy_kw3", "proxy_junk"))
    def gap(p: Array[Double]): Double = {
      val in = p.zip(pos).filter(_._2).map(_._1)
      val out = p.zip(pos).filterNot(_._2).map(_._1)
      in.sum / in.length - out.sum / out.length
    }
    val gaps = proxies.map(gap)
    assert(gaps(0) > gaps(1) && gaps(1) > gaps(2) && gaps(2) > gaps(3) + 0.05,
      s"gaps=$gaps")
    assert(math.abs(gaps(3)) < 0.03, "junk proxy should be uninformative")
  }

  test("trec05pMultiProxy and nightStreetMultiPred reuse their profile's columns") {
    val trec = Datasets.local(spark, Datasets.trec05p, sf = 0.02)
    val (pos, stat, _) = ExtDatasets.collectMultiProxy(
      ExtDatasets.trec05pMultiProxy(spark, sf = 0.02), Vector("proxy_kw1"))
    assert(pos.toSeq == trec.positive.toSeq)
    assert(stat.toSeq == trec.stat.toSeq)
    val night = Datasets.local(spark, Datasets.nightStreet, sf = 0.02)
    val multi = single(ExtDatasets.nightStreetMultiPred(spark, sf = 0.02), "cars")
    assert(multi.stat.toSeq == night.stat.toSeq)
  }

  test("syntheticMultiProxy positives follow theta and stat tracks theta") {
    val (pos, stat, proxies) = ExtDatasets.collectMultiProxy(
      ExtDatasets.syntheticMultiProxy(spark, rows = 40000),
      Vector("proxy_p1", "proxy_p2", "proxy_p3"))
    val rate = pos.count(identity).toDouble / pos.length
    assert(rate > 0.1 && rate < 0.5, s"rate=$rate")
    // good proxy p1 correlates with the label; junk p3 does not
    def gap(p: Array[Double]): Double = {
      val in = p.zip(pos).filter(_._2).map(_._1)
      val out = p.zip(pos).filterNot(_._2).map(_._1)
      in.sum / in.length - out.sum / out.length
    }
    assert(gap(proxies(0)) > gap(proxies(2)) + 0.05)
    // stat = 5 + 5θ + noise: positives (higher θ) have higher stat
    val statIn = stat.zip(pos).filter(_._2).map(_._1)
    val statOut = stat.zip(pos).filterNot(_._2).map(_._1)
    assert(statIn.sum / statIn.length > statOut.sum / statOut.length)
  }
}
