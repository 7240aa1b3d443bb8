package repro.spark

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{IIM, Imputer, Neighbors}
import repro.linalg.LinAlg.Vec

/** Spark-parallel IIM, per the DataFrame-first layering in DESIGN.md §1.
  *
  * The complete relation is small (≤100k short rows). The driver builds one
  * [[Neighbors.Index]] over it and broadcasts it; every neighbour lookup of
  * both phases reads that broadcast.
  * Adaptive learning (Algorithm 3) is a fan-out over the same per-tuple
  * functions [[IIM.adaptive]] runs, in two `mapPartitions` jobs over
  * `spark.range(n)`, with no shuffle:
  *
  *  - job 1 computes each tuple's neighbour list once and collects it; the
  *    driver builds the reverse lists ([[IIM.reverseLists]]) and broadcasts
  *    both;
  *  - job 2 runs [[IIM.adaptiveFor]] per tuple (Proposition-3 learning,
  *    validation over its reverse list, argmin) and returns only the chosen
  *    model.
  *
  * Imputation (Algorithm 2) is a scalar UDF over the feature array, applied
  * only where the target column is NULL/NaN.
  */
object SparkIIM {

  /** Distributed Algorithm-3 learning; returns one model per complete tuple,
    * bitwise identical to [[IIM.adaptive]] (asserted in tests).
    */
  def adaptiveModels(spark: SparkSession, data: Array[Array[Double]], featIdx: Array[Int],
                     targetIdx: Int, p: IIM.Params): Array[Vec] =
    adaptiveModels(spark, spark.sparkContext.broadcast(Neighbors.Index(data, featIdx)), targetIdx, p)

  private def adaptiveModels(spark: SparkSession, bcIndex: Broadcast[Neighbors.Index], targetIdx: Int,
                             p: IIM.Params): Array[Vec] = {
    import spark.implicits._
    val sc = spark.sparkContext
    IIM.requireFiniteTargets(bcIndex.value.data, targetIdx)
    val n = bcIndex.value.data.length
    val ls = IIM.ellCandidates(n, p.lMax, p.step)
    val limit = IIM.listLength(n, ls, p)

    val lists = new Array[Array[Int]](n)
    spark.range(n.toLong).as[Long].mapPartitions { it =>
      val index = bcIndex.value
      it.map(i => (i.toInt, index.nearestTo(i.toInt, limit)))
    }.collect().foreach { case (i, list) => lists(i) = list }

    val bcLists = sc.broadcast(lists)
    val bcRev = sc.broadcast(IIM.reverseLists(lists, p.kvEff))
    val models = new Array[Vec](n)
    spark.range(n.toLong).as[Long].mapPartitions { it =>
      val index = bcIndex.value; val nn = bcLists.value; val rev = bcRev.value
      it.map { iL =>
        val i = iL.toInt
        (i, IIM.adaptiveFor(index.data, index.featIdx, targetIdx, nn(i), rev(i), ls, p.alpha))
      }
    }.collect().foreach { case (i, phi) => models(i) = phi }
    models
  }

  /** Algorithm 2 as a DataFrame UDF: rows of `df` whose `targetCol` is
    * NULL/NaN are imputed from the broadcast index of the complete relation
    * and models. `featCols` must be in the same order as `featIdx` used at
    * learning time. Such a row with a NULL feature fails the query with an
    * error naming the feature column.
    */
  def impute(spark: SparkSession, df: DataFrame, featCols: Seq[String], targetCol: String,
             complete: Array[Array[Double]], featIdx: Array[Int], models: Array[Vec],
             k: Int): DataFrame =
    impute(spark, df, featCols, targetCol, spark.sparkContext.broadcast(Neighbors.Index(complete, featIdx)),
      models, k)

  private def impute(spark: SparkSession, df: DataFrame, featCols: Seq[String], targetCol: String,
                     bcIndex: Broadcast[Neighbors.Index], models: Array[Vec], k: Int): DataFrame = {
    val bcModels = spark.sparkContext.broadcast(models)
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

  /** End-to-end convenience: learn on `complete`, impute the projected
    * queries through the DataFrame path, return values in query order. One
    * index, built on the driver and broadcast once, serves both.
    */
  def imputeValues(spark: SparkSession, complete: Array[Array[Double]], featIdx: Array[Int],
                   targetIdx: Int, queries: Array[Array[Double]], p: IIM.Params): Array[Double] = {
    import spark.implicits._
    val bcIndex = spark.sparkContext.broadcast(Neighbors.Index(complete, featIdx))
    val models = adaptiveModels(spark, bcIndex, targetIdx, p)
    val featCols = featIdx.indices.map(a => s"f$a")
    val qDf = spark.createDataset(queries.indices.map(id => (id, queries(id).toSeq)))
      .toDF("id", "fs")
      .select(col("id") +: featCols.zipWithIndex.map { case (c, a) => col("fs").getItem(a).as(c) }: _*)
      .withColumn("y", lit(Double.NaN))
    val out = impute(spark, qDf, featCols, "y", bcIndex, models, p.k)
      .select("id", "y").collect()
    val res = new Array[Double](queries.length)
    out.foreach(r => res(r.getInt(0)) = r.getDouble(1))
    res
  }

  /** [[Imputer]] adapter that runs IIM through the Spark path. */
  final class SparkImputer(spark: SparkSession, p: IIM.Params) extends Imputer {
    override def name: String = "IIM"
    override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                           queries: Array[Array[Double]], seed: Long): Array[Double] =
      imputeValues(spark, complete, featIdx, targetIdx, queries, p)
  }
}
