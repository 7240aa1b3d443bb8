package repro.spark

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.Ridge
import repro.linalg.LinAlg
import repro.linalg.LinAlg.{Mat, Vec}

/** Relational building blocks of the imputation pipeline, expressed in the
  * DataFrame API so the DuckDB oracle can cross-check them.
  */
object SparkImpute {

  /** k-nearest-neighbour join: for each query row the k complete rows with
    * the smallest Formula-1 distance. Ties break on the complete row id so
    * ranks are deterministic (and oracle-comparable).
    *
    * @return columns (qid, cid, rank), rank ∈ 1..k
    */
  def knnJoin(queries: DataFrame, complete: DataFrame, idCol: String,
              featCols: Seq[String], k: Int): DataFrame = {
    val q = queries.select(col(idCol).as("qid") +: featCols.map(c => col(c).as(s"q_$c")): _*)
    val c = complete.select(col(idCol).as("cid") +: featCols.map(c0 => col(c0).as(s"c_$c0")): _*)
    val dist2: Column = featCols
      .map(f => (col(s"q_$f") - col(s"c_$f")) * (col(s"q_$f") - col(s"c_$f")))
      .reduce(_ + _)
    val joined = q.crossJoin(c).withColumn("dist", sqrt(dist2 / lit(featCols.length)))
    val w = Window.partitionBy("qid").orderBy(col("dist").asc, col("cid").asc)
    joined.withColumn("rank", row_number().over(w))
      .where(col("rank") <= k)
      .select("qid", "cid", "rank")
  }

  /** Mean imputation in SQL form: NULL/NaN targets replaced by the column
    * mean of the observed values (the Mean baseline, relationally).
    */
  def meanImpute(df: DataFrame, targetCol: String): DataFrame = {
    val observed = when(col(targetCol).isNull || isnan(col(targetCol)), lit(null))
      .otherwise(col(targetCol))
    val mean = df.agg(avg(observed)).head().getDouble(0)
    df.withColumn(targetCol, coalesce(observed, lit(mean)))
  }

  /** GLR's normal equations built with DataFrame aggregations: one pass of
    * sums over products of the (intercept-augmented) features and target.
    * Returns (U = XᵀX, V = XᵀY).
    */
  def normalEquations(df: DataFrame, featCols: Seq[String], targetCol: String): (Mat, Vec) = {
    val row = normalEquationSums(df, featCols, targetCol).head()
    val p = featCols.length + 1
    val u = LinAlg.zeros(p, p)
    val v = new Array[Double](p)
    var idx = 0
    for (i <- 0 until p; j <- i until p) {
      u(i)(j) = row.getDouble(idx); u(j)(i) = u(i)(j); idx += 1
    }
    for (i <- 0 until p) { v(i) = row.getDouble(idx); idx += 1 }
    (u, v)
  }

  /** The raw aggregation behind [[normalEquations]] — exposed as a DataFrame
    * so tests can hand it to the DuckDB oracle.
    */
  def normalEquationSums(df: DataFrame, featCols: Seq[String], targetCol: String): DataFrame = {
    val aug: Seq[Column] = lit(1.0) +: featCols.map(col)
    val p = aug.length
    val uAggs = for (i <- 0 until p; j <- i until p)
      yield sum(aug(i) * aug(j)).as(s"u_${i}_$j")
    val vAggs = for (i <- 0 until p) yield sum(aug(i) * col(targetCol)).as(s"v_$i")
    df.agg((uAggs ++ vAggs).head, (uAggs ++ vAggs).tail: _*)
  }

  /** Fit GLR from the relational normal equations: φ = (U+αE)⁻¹V. */
  def fitGlr(df: DataFrame, featCols: Seq[String], targetCol: String, alpha: Double = 1e-3): Vec = {
    val (u, v) = normalEquations(df, featCols, targetCol)
    Ridge.solve(u, v, alpha)
  }
}
