package repro.spark

import scala.reflect.ClassTag

import org.apache.spark.SparkContext
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{IIM, Imputer, Neighbors}
import repro.linalg.LinAlg.Vec

/** Spark-parallel IIM, per the layering in DESIGN.md §1.
  *
  * The complete relation is small (≤100k short rows). The driver builds one
  * [[Neighbors.Index]] over it and broadcasts it; every neighbour lookup in
  * a task reads that broadcast. Learning has no cross-record step, so
  * Algorithm 3 is one shuffle-free [[perTuple]] job, "IIM Algorithm 3
  * (m of n tuples, …)", over the functions the local path runs, and every
  * result is bitwise equal to the local path:
  *
  *  - the driver builds each tuple's (kv + 1)-list and their reverse lists
  *    ([[IIM.reverseLists]]), which equal those of the full lists;
  *  - each task takes one tuple id with its reverse list, computes the
  *    tuple's full neighbour list and runs [[IIM.adaptiveFor]], returning
  *    only the chosen model.
  *
  * [[imputeValues]] learns only the m tuples some query's k nearest include
  * ([[IIM.imputeMasked]]) and votes on the driver; [[adaptiveModels]] learns
  * all n. [[impute]] is the DataFrame entry point: a scalar UDF applied only
  * where the target column is NULL/NaN.
  */
object SparkIIM {

  /** Distributed Algorithm-3 learning; returns one model per complete tuple,
    * bitwise identical to [[IIM.adaptive]] (asserted in tests). An empty
    * relation has no models and starts no job.
    */
  def adaptiveModels(spark: SparkSession, data: Array[Array[Double]], featIdx: Array[Int],
                     targetIdx: Int, p: IIM.Params): Array[Vec] = {
    val index = Neighbors.Index(data, featIdx)
    IIM.requireFiniteTargets(data, targetIdx)
    learn(spark.sparkContext, index, targetIdx, p, Array.fill(data.length)(true), "")
  }

  /** The models of the tuples `marked` flags, in one "IIM Algorithm 3" job
    * whose description ends with `detail`; the others' models are null.
    */
  private def learn(sc: SparkContext, index: Neighbors.Index, targetIdx: Int, p: IIM.Params,
                    marked: Array[Boolean], detail: String): Array[Vec] = {
    val n = index.data.length
    val ls = IIM.ellCandidates(n, p.lMax, p.step)
    val limit = IIM.listLength(n, ls, p)
    val rev = IIM.reverseLists(IIM.neighborLists(index, IIM.validationLength(n, p)), p.kvEff)
    val ids = marked.indices.filter(marked)
    val bcIndex = sc.broadcast(index)
    val learned = perTuple(sc, s"IIM Algorithm 3 (${ids.length} of $n tuples$detail)", ids.map(i => (i, rev(i)))) {
      case (i, validators) =>
        val index = bcIndex.value
        IIM.adaptiveFor(index.data, index.featIdx, targetIdx, index.nearestTo(i, limit), validators, ls, p.alpha)
    }
    val models = new Array[Vec](n)
    for (j <- ids.indices) models(ids(j)) = learned(j)
    models
  }

  /** `f` over `items` in one job described as `phase`, results in item
    * order (`collect` keeps partition order); no items start no job. `f`
    * may read broadcasts only. The caller's job description, the local
    * property `setJobDescription` writes, is restored afterwards.
    */
  private def perTuple[A: ClassTag, T: ClassTag](sc: SparkContext, phase: String, items: Seq[A])(f: A => T): Array[T] = {
    if (items.isEmpty) return Array.empty[T]
    val caller = sc.getLocalProperty("spark.job.description")
    sc.setJobDescription(phase)
    try sc.parallelize(items, sc.defaultParallelism).map(f).collect()
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

  /** End-to-end convenience: learn on `complete` the models the projected
    * queries read, in one Algorithm 3 job, then vote on the driver; values
    * in query order. Bad queries and a non-finite value in the complete
    * relation are rejected on the driver before any job starts; no query
    * starts no job.
    */
  def imputeValues(spark: SparkSession, complete: Array[Array[Double]], featIdx: Array[Int],
                   targetIdx: Int, queries: Array[Array[Double]], p: IIM.Params): Array[Double] = {
    IIM.requireQueries(queries, featIdx.length)
    val index = Neighbors.Index(complete, featIdx)
    IIM.imputeMasked(index, targetIdx, queries, p.k)(
      learn(spark.sparkContext, index, targetIdx, p, _, s", q = ${queries.length}"))
  }

  /** [[Imputer]] adapter that runs IIM through the Spark path. */
  final class SparkImputer(spark: SparkSession, p: IIM.Params) extends Imputer {
    override def name: String = "IIM"
    override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                           queries: Array[Array[Double]], seed: Long): Array[Double] =
      imputeValues(spark, complete, featIdx, targetIdx, queries, p)
  }
}
