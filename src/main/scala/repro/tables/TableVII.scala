package repro.tables

import org.apache.spark.sql.SparkSession
import repro.apps.Applications
import repro.data.{Generators, Missing}
import repro.ml.KMeans

/** Table VII: clustering purity on ASF & CA and classification F1 on MAM &
  * HEP, with real (injected MCAR, truth unused) missing values, for every
  * method plus the un-imputed "Missing" column (§VI-D).
  */
object TableVII {

  final case class Row(dataset: String, missing: Double, scores: Map[String, Double])

  /** Paper column order: IIM, Mean, then the remaining Table V methods. */
  val methodColumns: Seq[String] = Seq("IIM", "Mean") ++ TableV.columns.filterNot(_ == "IIM")

  /** Clusters per dataset — matches the generator's mixture count, so KMeans
    * is stable and purity measures imputation quality, not centroid-split
    * instability.
    */
  val clusterK: Map[String, Int] = Map("ASF" -> 4, "CA" -> 3)

  /** Clustering rows (purity). */
  def clustering(spark: SparkSession, sizeFactor: Double = 1.0, seed: Long = 42,
                 cellProb: Double = 0.2): Seq[Row] =
    Seq("ASF", "CA").map { name =>
      val k = clusterK(name)
      // Keep the clustering app at moderate n so 15 impute+cluster runs fit.
      val ds = Generators.byName(name, seed, sizeFactor * (if (name == "CA") 0.4 else 1.0))
      val truth = KMeans.fit(ds.rows, k, seed).labels
      row(spark, ds, cellProb, seed)(Applications.clusteringPurity(truth, _, k, seed))
    }

  /** Classification rows (weighted F1, 5-fold CV). */
  def classification(spark: SparkSession, sizeFactor: Double = 1.0, seed: Long = 42,
                     cellProbs: Map[String, Double] = Map("MAM" -> 0.15, "HEP" -> 0.05)): Seq[Row] =
    Seq("MAM", "HEP").map { name =>
      val ds = Generators.byName(name, seed, sizeFactor)
      val labels = ds.labels.getOrElse(sys.error(s"$name must be labelled"))
      row(spark, ds, cellProbs(name), seed)(Applications.classificationF1(_, labels, seed))
    }

  /** One dataset's row: inject holes, score the holed data, then score each
    * method's imputation of it.
    */
  private def row(spark: SparkSession, ds: Generators.Dataset, cellProb: Double, seed: Long)
                 (score: Array[Array[Double]] => Double): Row = {
    val holed = Missing.injectCells(ds.rows, cellProb, seed + 1)
    val methods = Methods.iim(spark, ds.name) +: Methods.withMean()
    Row(ds.name, score(holed), methods.map(m => m.name -> score(Applications.imputeMatrix(holed, m, seed + 2))).toMap)
  }

  def run(spark: SparkSession, sizeFactor: Double = 1.0, seed: Long = 42): Seq[Row] =
    clustering(spark, sizeFactor, seed) ++ classification(spark, sizeFactor, seed)

  def format(rows: Seq[Row]): String =
    TableV.layout(7, 3, Seq("Dataset", "Missing"), methodColumns, rows.map(r => (r.dataset, Seq(r.missing), r.scores)))
}
