package repro.spark

import scala.reflect.ClassTag

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{IIM, Imputer, Neighbors}
import repro.linalg.LinAlg.Vec

/** Spark-parallel IIM, per the layering in DESIGN.md §1.
  *
  * The complete relation is small (≤100k short rows). The driver builds one
  * [[Neighbors.Index]] over it and broadcasts it; every neighbour lookup
  * reads that broadcast. Learning and imputation have no cross-record step,
  * so each phase is one shuffle-free [[perTuple]] job over the functions the
  * local path runs, and every result is bitwise equal to the local path:
  *
  *  - "IIM neighbour lists" computes each tuple's list once; the driver
  *    builds the reverse lists ([[IIM.reverseLists]]) and broadcasts both;
  *  - "IIM Algorithm 3" runs [[IIM.adaptiveFor]] per tuple and returns only
  *    the chosen model;
  *  - "IIM Algorithm 2" ([[imputeValues]]) runs [[IIM.imputeOne]] per query.
  *
  * [[impute]] is the DataFrame entry point: a scalar UDF applied only where
  * the target column is NULL/NaN.
  */
object SparkIIM {

  /** Distributed Algorithm-3 learning; returns one model per complete tuple,
    * bitwise identical to [[IIM.adaptive]] (asserted in tests).
    */
  def adaptiveModels(spark: SparkSession, data: Array[Array[Double]], featIdx: Array[Int],
                     targetIdx: Int, p: IIM.Params): Array[Vec] =
    adaptiveModels(spark.sparkContext, spark.sparkContext.broadcast(Neighbors.Index(data, featIdx)), targetIdx, p)

  private def adaptiveModels(sc: SparkContext, bcIndex: Broadcast[Neighbors.Index], targetIdx: Int,
                             p: IIM.Params): Array[Vec] = {
    IIM.requireFiniteTargets(bcIndex.value.data, targetIdx)
    val n = bcIndex.value.data.length
    val ls = IIM.ellCandidates(n, p.lMax, p.step)
    val limit = IIM.listLength(n, ls, p)
    val lists = perTuple(sc, s"IIM neighbour lists (n = $n)", n)(i => bcIndex.value.nearestTo(i, limit))
    val bcLists = sc.broadcast(lists)
    val bcRev = sc.broadcast(IIM.reverseLists(lists, p.kvEff))
    perTuple(sc, s"IIM Algorithm 3 (n = $n)", n) { i =>
      val index = bcIndex.value
      IIM.adaptiveFor(index.data, index.featIdx, targetIdx, bcLists.value(i), bcRev.value(i), ls, p.alpha)
    }
  }

  /** `f` over the ids `0 until n` in one job described as `phase`, results in
    * id order (`collect` keeps partition order). `f` may read broadcasts
    * only. The caller's job description, the local property
    * `setJobDescription` writes, is restored afterwards.
    */
  private def perTuple[T: ClassTag](sc: SparkContext, phase: String, n: Int)(f: Int => T): Array[T] = {
    val caller = sc.getLocalProperty("spark.job.description")
    sc.setJobDescription(phase)
    try sc.parallelize(0 until n, sc.defaultParallelism).map(f).collect()
    finally sc.setJobDescription(caller)
  }

  /** Algorithm 2 as a DataFrame UDF: rows of `df` whose `targetCol` is
    * NULL/NaN are imputed from the broadcast index of the complete relation
    * and models. `featCols` must be in the same order as `featIdx` used at
    * learning time. Such a row with a NULL feature fails the query with an
    * error naming the feature column.
    */
  def impute(spark: SparkSession, df: DataFrame, featCols: Seq[String], targetCol: String,
             complete: Array[Array[Double]], featIdx: Array[Int], models: Array[Vec],
             k: Int): DataFrame = {
    val sc = spark.sparkContext
    val bcIndex = sc.broadcast(Neighbors.Index(complete, featIdx))
    val bcModels = sc.broadcast(models)
    val imputeUdf = udf { (xs: Seq[Double]) =>
      IIM.imputeOne(bcIndex.value, bcModels.value, xs.toArray, k)
    }
    val target = col(targetCol)
    // A NULL feature cannot enter the UDF's Seq[Double]; name its column instead.
    val imputed = featCols.foldRight(imputeUdf(array(featCols.map(col): _*))) { (c, rest) =>
      when(col(c).isNull, raise_error(lit(s"feature column $c is NULL on a row whose $targetCol is missing")))
        .otherwise(rest)
    }
    df.withColumn(targetCol, when(target.isNull || isnan(target), imputed).otherwise(target))
  }

  /** End-to-end convenience: learn on `complete`, then impute the projected
    * queries in one Algorithm 2 job; values in query order. A bad query is
    * rejected on the driver before any job starts. One index, built on the
    * driver and broadcast once, serves every phase.
    */
  def imputeValues(spark: SparkSession, complete: Array[Array[Double]], featIdx: Array[Int],
                   targetIdx: Int, queries: Array[Array[Double]], p: IIM.Params): Array[Double] = {
    IIM.requireQueries(queries, featIdx.length)
    val sc = spark.sparkContext
    val bcIndex = sc.broadcast(Neighbors.Index(complete, featIdx))
    val bcModels = sc.broadcast(adaptiveModels(sc, bcIndex, targetIdx, p))
    val bcQueries = sc.broadcast(queries)
    perTuple(sc, s"IIM Algorithm 2 (q = ${queries.length})", queries.length)(i =>
      IIM.imputeOne(bcIndex.value, bcModels.value, bcQueries.value(i), p.k))
  }

  /** [[Imputer]] adapter that runs IIM through the Spark path. */
  final class SparkImputer(spark: SparkSession, p: IIM.Params) extends Imputer {
    override def name: String = "IIM"
    override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                           queries: Array[Array[Double]], seed: Long): Array[Double] =
      imputeValues(spark, complete, featIdx, targetIdx, queries, p)
  }
}
