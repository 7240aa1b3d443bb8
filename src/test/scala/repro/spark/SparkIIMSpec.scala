package repro.spark

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._

import org.apache.spark.TestBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.scalacheck.{Gen, Prop, Test}
import repro.SparkSpec
import repro.core.{IIM, Neighbors}

/** The Spark IIM path must agree with the in-core reference implementation. */
class SparkIIMSpec extends SparkSpec {

  private def randomData(n: Int, m: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n)(Array.fill(m)(rnd.nextDouble() * 10))
  }

  private val p = IIM.Params(k = 4, lMax = 25, step = 2)

  private def assertSameModels(data: Array[Array[Double]], fi: Array[Int], ti: Int, p: IIM.Params): Unit = {
    val sparkModels = SparkIIM.adaptiveModels(spark, data, fi, ti, p)
    val localModels = IIM.adaptive(data, fi, ti, p)
    assert(sparkModels.length == localModels.length)
    for (i <- data.indices)
      assert(sparkModels(i).sameElements(localModels(i)), s"model $i differs (n=${data.length}, $p)")
  }

  /** n rows drawn with replacement from `distinct` random rows (duplicates
    * when distinct < n); `constant` pins feature column 0 to one value.
    */
  private def edgeData(n: Int, distinct: Int, constant: Boolean, seed: Long): Array[Array[Double]] = {
    val pool = randomData(distinct, 3, seed)
    val rnd = new scala.util.Random(seed)
    Array.fill(n) {
      val row = pool(rnd.nextInt(distinct)).clone()
      if (constant) row(0) = 2.5
      row
    }
  }

  private def assertSameBits(a: Array[Double], b: Array[Double]): Unit = {
    assert(a.length == b.length)
    for (i <- a.indices)
      assert(java.lang.Double.doubleToRawLongBits(a(i)) == java.lang.Double.doubleToRawLongBits(b(i)),
        s"query $i: ${a(i)} vs ${b(i)}")
  }

  private def assertSameImputations(data: Array[Array[Double]], fi: Array[Int], ti: Int,
                                    queries: Array[Array[Double]], p: IIM.Params): Unit =
    assertSameBits(SparkIIM.imputeValues(spark, data, fi, ti, queries, p),
      new IIM.LocalImputer(p).imputeAll(data, fi, ti, queries, 0L))

  /** Data of random size with duplicate rows and, at times, a constant
    * column, its feature count and random Params.
    */
  private val cases: Gen[(Array[Array[Double]], Int, IIM.Params)] = for {
    n <- Gen.choose(1, 40)
    distinct <- Gen.choose(1, n)
    constant <- Gen.oneOf(false, true)
    nFeat <- Gen.choose(1, 2)
    k <- Gen.choose(1, 45)
    lMax <- Gen.choose(1, 50)
    step <- Gen.choose(1, 7)
    kv <- Gen.choose(0, 45)
    seed <- Gen.choose(0L, 100000L)
  } yield (edgeData(n, distinct, constant, seed), nFeat, IIM.Params(k = k, lMax = lMax, step = step, kv = kv))

  private def checkAll[T](gen: Gen[T])(check: T => Unit): Unit = {
    val prop = Prop.forAllNoShrink(gen) { t => check(t); true }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(12).withWorkers(1), prop)
    assert(result.passed, result.status)
  }

  /** The description and stage count of every job `body` starts, and the
    * shuffle records its tasks write; read after draining the listener bus.
    */
  private def jobsOf(body: => Unit): (Seq[(String, Int)], Long) = {
    val sc = spark.sparkContext
    TestBus.drain(sc)
    val jobs = new ConcurrentLinkedQueue[(String, Int)]()
    val shuffled = new AtomicLong
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        jobs.add((Option(e.properties).map(_.getProperty("spark.job.description")).orNull, e.stageInfos.size))
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(e.taskMetrics).foreach(m => shuffled.addAndGet(m.shuffleWriteMetrics.recordsWritten))
    }
    sc.addSparkListener(listener)
    try body finally { TestBus.drain(sc); sc.removeSparkListener(listener) }
    (jobs.asScala.toSeq, shuffled.get)
  }

  test("adaptiveModels equals the local IIM.adaptive models") {
    assertSameModels(randomData(80, 3, 1), Array(0, 1), 2, p)
    // n ≤ kv and k ≥ n, with repeated rows and a constant feature; then n = 1.
    assertSameModels(edgeData(6, 3, constant = true, 8), Array(0, 1), 2, IIM.Params(k = 9, lMax = 10, kv = 20))
    assertSameModels(edgeData(1, 1, constant = false, 9), Array(0, 1), 2, IIM.Params(k = 3))
  }

  test("adaptiveModels equals IIM.adaptive bitwise over random Params and sizes") {
    checkAll(cases) { case (data, nFeat, params) => assertSameModels(data, Array.range(0, nFeat), 2, params) }
  }

  test("SparkImputer equals LocalImputer bitwise over random Params, sizes and query counts") {
    val withQueries = for {
      c <- cases
      q <- Gen.frequency(1 -> Gen.const(0), 4 -> Gen.choose(1, 12))
      seed <- Gen.choose(0L, 100000L)
    } yield {
      val (data, nFeat, _) = c
      val rnd = new scala.util.Random(seed)
      // Rows of the relation (duplicates, the constant column) and points off it.
      val queries = Array.fill(q)(
        if (rnd.nextBoolean()) data(rnd.nextInt(data.length)).take(nFeat) else Array.fill(nFeat)(rnd.nextDouble() * 10))
      (c, queries)
    }
    checkAll(withQueries) { case ((data, nFeat, params), queries) =>
      val fi = Array.range(0, nFeat)
      assertSameBits(new SparkIIM.SparkImputer(spark, params).imputeAll(data, fi, 2, queries, 0L),
        new IIM.LocalImputer(params).imputeAll(data, fi, 2, queries, 0L))
    }
  }

  test("imputeValues equals the local end-to-end pipeline") {
    val data = randomData(70, 3, 2)
    val fi = Array(0, 1); val ti = 2
    val rnd = new scala.util.Random(3)
    val queries = Array.fill(10)(Array(rnd.nextDouble() * 10, rnd.nextDouble() * 10))
    assertSameImputations(data, fi, ti, queries, p)
    // Duplicate rows, a constant feature and k ≥ n; queries on and off the rows.
    val dup = edgeData(7, 3, constant = true, 11)
    assertSameImputations(dup, fi, ti, dup.map(r => Array(r(0), r(1))) ++ queries, IIM.Params(k = 9, lMax = 10, kv = 20))
    // One complete tuple; then no queries at all.
    assertSameImputations(edgeData(1, 1, constant = false, 12), fi, ti, queries, p)
    assert(SparkIIM.imputeValues(spark, data, fi, ti, Array.empty, p).isEmpty)
  }

  test("imputeValues runs one named job with one stage and no shuffle") {
    val data = randomData(40, 3, 15)
    val fi = Array(0, 1)
    val queries = Array(Array(1.0, 2.0), Array(1.0, 2.0), Array(8.0, 3.0), Array(5.0, 5.0), Array(1.0, 2.5))
    // The tuples whose models Algorithm 2 reads: every query's k nearest.
    val m = queries.flatMap(Neighbors.nearest(data, fi, _, p.k)).distinct.length
    assert(m < data.length)
    val sc = spark.sparkContext
    sc.setJobDescription("caller")
    try {
      val (jobs, shuffled) = jobsOf(SparkIIM.imputeValues(spark, data, fi, 2, queries, p))
      assert(jobs == Seq((s"IIM Algorithm 3 ($m of 40 tuples, q = 5)", 1)), jobs)
      assert(shuffled == 0L)
      assert(sc.getLocalProperty("spark.job.description") == "caller")
      val (learnAll, _) = jobsOf(SparkIIM.adaptiveModels(spark, data, fi, 2, p))
      assert(learnAll == Seq(("IIM Algorithm 3 (40 of 40 tuples)", 1)), learnAll)
    } finally sc.setJobDescription(null)
  }

  test("imputeValues with no queries starts no job") {
    val (jobs, _) = jobsOf(assert(SparkIIM.imputeValues(spark, randomData(30, 3, 17), Array(0, 1), 2, Array.empty, p).isEmpty))
    assert(jobs.isEmpty, jobs)
  }

  test("an empty complete relation starts no job: queries are an error naming it, adaptiveModels has no models") {
    val empty = Array.empty[Array[Double]]
    val (jobs, _) = jobsOf {
      val e = intercept[IllegalArgumentException](SparkIIM.imputeValues(spark, empty, Array(0), 1, Array(Array(1.0)), p))
      assert(e.getMessage.contains("complete relation is empty"), e.getMessage)
      assert(SparkIIM.imputeValues(spark, empty, Array(0), 1, Array.empty, p).isEmpty)
      assert(SparkIIM.adaptiveModels(spark, empty, Array(0), 1, p).isEmpty)
    }
    assert(jobs.isEmpty, jobs)
  }

  test("a NaN target in a row no query reads is rejected with its row and column") {
    val data = randomData(30, 3, 18)
    data(17)(0) = 90.0; data(17)(1) = 90.0; data(17)(2) = Double.NaN
    val queries = Array(Array(1.0, 2.0), Array(6.0, 4.0))
    assert(!queries.exists(q => Neighbors.nearest(data, Array(0, 1), q, p.k).contains(17)))
    for (imputer <- Seq(new IIM.LocalImputer(p), new SparkIIM.SparkImputer(spark, p))) {
      // Rejected on the driver, before the mask: no Spark job starts.
      val (jobs, _) = jobsOf {
        val e = intercept[IllegalArgumentException](imputer.imputeAll(data, Array(0, 1), 2, queries, 0L))
        assert(e.getMessage.contains("row 17 column 2"), e.getMessage)
      }
      assert(jobs.isEmpty, jobs)
    }
  }

  test("impute UDF only touches NULL/NaN targets") {
    val spark0 = spark
    import spark0.implicits._
    val data = randomData(50, 3, 4)
    val fi = Array(0, 1); val ti = 2
    val rnd = new scala.util.Random(16)
    val queries = Array.fill(8)(Array(rnd.nextDouble() * 10, rnd.nextDouble() * 10))
    val present = Array(42.0, -0.0, 13.0, 1e-300)
    // Query rows carry a NULL or NaN target, the rows after them a present one.
    val rows = queries.indices.map(i => (i, queries(i)(0), queries(i)(1), if (i % 2 == 0) None else Some(Double.NaN))) ++
      present.indices.map(j => (queries.length + j, 1.0 + j, 2.0 + j, Some(present(j))))
    val df = rows.toDF("id", "f0", "f1", "y")
    val models = SparkIIM.adaptiveModels(spark, data, fi, ti, p)
    val out = SparkIIM.impute(spark, df, Seq("f0", "f1"), "y", data, fi, models, p.k)
      .orderBy("id").collect().map(_.getDouble(3))
    assertSameBits(out.take(queries.length), SparkIIM.imputeValues(spark, data, fi, ti, queries, p))
    assertSameBits(out.drop(queries.length), present)
  }

  test("imputed value equals the local Algorithm 2 result for the same models") {
    val spark0 = spark
    import spark0.implicits._
    val data = randomData(50, 3, 5)
    val fi = Array(0, 1); val ti = 2
    val models = IIM.adaptive(data, fi, ti, p)
    val df = Seq((1, 2.5, 7.5, Double.NaN)).toDF("id", "f0", "f1", "y")
    val got = SparkIIM.impute(spark, df, Seq("f0", "f1"), "y", data, fi, models, p.k)
      .collect()(0).getDouble(3)
    val want = IIM.imputeOne(data, models, fi, Array(2.5, 7.5), p.k)
    assert(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want), s"$got vs $want")
  }

  test("SparkImputer adapter matches LocalImputer on a small problem") {
    val data = randomData(60, 4, 6)
    val fi = Array(0, 1, 2); val ti = 3
    val rnd = new scala.util.Random(7)
    val queries = Array.fill(6)(Array.fill(3)(rnd.nextDouble() * 10))
    val a = new SparkIIM.SparkImputer(spark, p).imputeAll(data, fi, ti, queries, 0L)
    val b = new IIM.LocalImputer(p).imputeAll(data, fi, ti, queries, 0L)
    assertSameBits(a, b)
  }

  test("a non-finite feature in the complete relation is rejected with its row and column") {
    val queries = Array(Array(1.0, 2.0))
    // A feature value, then a target value, which the index does not read.
    for ((row, column, where) <- Seq((17, 1, "row 17 column 1"), (23, 2, "row 23 column 2"))) {
      val data = randomData(30, 3, 12)
      data(row)(column) = Double.NaN
      for (imputer <- Seq(new IIM.LocalImputer(p), new SparkIIM.SparkImputer(spark, p))) {
        val e = intercept[IllegalArgumentException](imputer.imputeAll(data, Array(0, 1), 2, queries, 0L))
        assert(e.getMessage.contains(where), e.getMessage)
      }
    }
  }

  test("a non-finite query feature is rejected with its position") {
    val data = randomData(30, 3, 13)
    // A non-finite feature, then a query of the wrong length.
    val bad = Seq(
      Array(Array(1.0, 2.0), Array(3.0, Double.PositiveInfinity)) -> "query 1: query feature 1 is not finite (Infinity)",
      Array(Array(1.0, 2.0, 3.0)) -> "query 0 has 3 features, expected 2")
    for ((queries, message) <- bad; imputer <- Seq(new IIM.LocalImputer(p), new SparkIIM.SparkImputer(spark, p))) {
      // Rejected on the driver, before learning: no Spark job starts.
      val (jobs, _) = jobsOf {
        val e = intercept[IllegalArgumentException](imputer.imputeAll(data, Array(0, 1), 2, queries, 0L))
        assert(e.getMessage.contains(message), e.getMessage)
      }
      assert(jobs.isEmpty, jobs)
    }
  }

  test("a NULL feature on a row whose target is missing is rejected with its column") {
    val spark0 = spark
    import spark0.implicits._
    val data = randomData(30, 3, 14)
    val fi = Array(0, 1)
    val models = IIM.adaptive(data, fi, 2, p)
    val df = Seq[(Int, Option[Double], Option[Double], Double)](
      (1, Some(1.0), None, 42.0),
      (2, Some(3.0), None, Double.NaN),
    ).toDF("id", "f0", "f1", "y")
    // With the target present the row is left as it is.
    val kept = SparkIIM.impute(spark, df.where($"id" === 1), Seq("f0", "f1"), "y", data, fi, models, p.k).collect()
    assert(kept(0).getDouble(3) == 42.0)
    val e = intercept[Exception](SparkIIM.impute(spark, df, Seq("f0", "f1"), "y", data, fi, models, p.k).collect())
    val messages = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage).toList
    assert(messages.exists(m => m != null && m.contains("feature column f1 is NULL")), messages)
  }

  test("SparkImputer reports the paper's method name") {
    assert(new SparkIIM.SparkImputer(spark, p).name == "IIM")
  }
}
