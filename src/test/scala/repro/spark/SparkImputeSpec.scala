package repro.spark

import repro.{Oracle, SparkSpec}
import repro.baselines.GlrImputer

/** Relational pieces cross-checked against DuckDB via the oracle. */
class SparkImputeSpec extends SparkSpec {

  private def round1(v: Double): Double = math.round(v * 10.0) / 10.0

  test("knnJoin matches the DuckDB window-rank formulation") {
    val spark0 = spark
    import spark0.implicits._
    val rnd = new scala.util.Random(1)
    val complete = Seq.tabulate(25)(i => (i, round1(rnd.nextDouble() * 10), round1(rnd.nextDouble() * 10)))
      .toDF("id", "f0", "f1")
    val queries = Seq.tabulate(6)(i => (100 + i, round1(rnd.nextDouble() * 10), round1(rnd.nextDouble() * 10)))
      .toDF("id", "f0", "f1")
    val got = SparkImpute.knnJoin(queries, complete, "id", Seq("f0", "f1"), k = 3)
      .withColumnRenamed("rank", "rnk")
    val d2 = "(CAST(q.f0 AS DOUBLE)-CAST(c.f0 AS DOUBLE))*(CAST(q.f0 AS DOUBLE)-CAST(c.f0 AS DOUBLE))" +
      " + (CAST(q.f1 AS DOUBLE)-CAST(c.f1 AS DOUBLE))*(CAST(q.f1 AS DOUBLE)-CAST(c.f1 AS DOUBLE))"
    val sql =
      s"""SELECT qid, cid, rnk FROM (
         |  SELECT q.id AS qid, c.id AS cid,
         |         row_number() OVER (PARTITION BY q.id ORDER BY $d2 ASC, CAST(c.id AS INT) ASC) AS rnk
         |  FROM queries q CROSS JOIN complete c) t
         |WHERE rnk <= 3""".stripMargin
    Oracle.assertEquivalent(got, sql, "queries" -> queries, "complete" -> complete)
  }

  test("knnJoin rank 1 is the exact nearest row") {
    val spark0 = spark
    import spark0.implicits._
    val complete = Seq((0, 0.0), (1, 5.0), (2, 9.0)).toDF("id", "f0")
    val queries = Seq((10, 4.9)).toDF("id", "f0")
    val got = SparkImpute.knnJoin(queries, complete, "id", Seq("f0"), 1).collect()
    assert(got.length == 1 && got(0).getInt(1) == 1)
  }

  test("knnJoin ties break on the smaller complete id") {
    val spark0 = spark
    import spark0.implicits._
    val complete = Seq((7, 1.0), (3, 3.0)).toDF("id", "f0") // both at distance 1 from 2.0
    val queries = Seq((0, 2.0)).toDF("id", "f0")
    val got = SparkImpute.knnJoin(queries, complete, "id", Seq("f0"), 2)
      .orderBy("rank").collect()
    assert(got(0).getInt(1) == 3 && got(1).getInt(1) == 7)
  }

  test("meanImpute matches DuckDB's COALESCE-with-AVG") {
    val spark0 = spark
    import spark0.implicits._
    val df = Seq[(Int, Option[Double])](
      (1, Some(2.0)), (2, None), (3, Some(4.5)), (4, Some(1.5)), (5, None)
    ).toDF("id", "v")
    val got = SparkImpute.meanImpute(df, "v")
    val sql =
      """SELECT id, COALESCE(CAST(v AS DOUBLE),
        |  (SELECT AVG(CAST(v AS DOUBLE)) FROM t WHERE v IS NOT NULL)) AS v
        |FROM t""".stripMargin
    Oracle.assertEquivalent(got, sql, "t" -> df)
  }

  test("meanImpute also replaces NaN sentinels") {
    val spark0 = spark
    import spark0.implicits._
    val df = Seq((1, 2.0), (2, Double.NaN), (3, 4.0)).toDF("id", "v")
    val got = SparkImpute.meanImpute(df, "v").orderBy("id").collect().map(_.getDouble(1))
    assert(got.sameElements(Array(2.0, 3.0, 4.0)))
  }

  test("normalEquationSums matches DuckDB aggregation") {
    val spark0 = spark
    import spark0.implicits._
    val rnd = new scala.util.Random(2)
    val df = Seq.fill(30)((round1(rnd.nextDouble() * 4), round1(rnd.nextDouble() * 4),
      round1(rnd.nextDouble() * 9))).toDF("x1", "x2", "y")
    val got = SparkImpute.normalEquationSums(df, Seq("x1", "x2"), "y")
    val aug = Seq("1.0", "CAST(x1 AS DOUBLE)", "CAST(x2 AS DOUBLE)")
    val uS = for (i <- 0 until 3; j <- i until 3) yield s"SUM(${aug(i)}*${aug(j)}) AS u_${i}_$j"
    val vS = for (i <- 0 until 3) yield s"SUM(${aug(i)}*CAST(y AS DOUBLE)) AS v_$i"
    Oracle.assertEquivalent(got, s"SELECT ${(uS ++ vS).mkString(", ")} FROM t", "t" -> df)
  }

  test("fitGlr through DataFrame aggregations equals the in-core GLR fit") {
    val spark0 = spark
    import spark0.implicits._
    val rnd = new scala.util.Random(3)
    val rows = Array.fill(80)(Array(rnd.nextDouble() * 5, rnd.nextDouble() * 5,
      rnd.nextDouble() * 2))
      .map(r => Array(r(0), r(1), 1.0 + 2.0 * r(0) - 0.5 * r(1) + r(2) * 0.01))
    val df = rows.map(r => (r(0), r(1), r(2))).toSeq.toDF("x1", "x2", "y")
    val viaSpark = SparkImpute.fitGlr(df, Seq("x1", "x2"), "y")
    val viaLocal = GlrImputer.fit(rows, Array(0, 1), 2, 1e-3)
    viaSpark.indices.foreach(i => assert(math.abs(viaSpark(i) - viaLocal(i)) < 1e-8))
  }

  test("knnJoin returns exactly k rows per query") {
    val spark0 = spark
    import spark0.implicits._
    val rnd = new scala.util.Random(4)
    val complete = Seq.tabulate(40)(i => (i, rnd.nextDouble())).toDF("id", "f0")
    val queries = Seq.tabulate(5)(i => (100 + i, rnd.nextDouble())).toDF("id", "f0")
    val counts = SparkImpute.knnJoin(queries, complete, "id", Seq("f0"), 4)
      .groupBy("qid").count().collect()
    assert(counts.length == 5 && counts.forall(_.getLong(1) == 4))
  }
}
