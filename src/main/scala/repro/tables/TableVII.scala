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
      val holed = Missing.injectCells(ds.rows, cellProb, seed + 1)
      val truth = KMeans.fit(ds.rows, k, seed).labels
      val missingScore = Applications.clusteringPurity(truth, holed, k, seed)
      val methods = Methods.iim(spark, name) +: Methods.withMean()
      val scores = methods.map { m =>
        m.name -> Applications.clusteringPurity(truth, Applications.imputeMatrix(holed, m, seed + 2), k, seed)
      }.toMap
      Row(name, missingScore, scores)
    }

  /** Classification rows (weighted F1, 5-fold CV). */
  def classification(spark: SparkSession, sizeFactor: Double = 1.0, seed: Long = 42,
                     cellProbs: Map[String, Double] = Map("MAM" -> 0.15, "HEP" -> 0.05)): Seq[Row] =
    Seq("MAM", "HEP").map { name =>
      val ds = Generators.byName(name, seed, sizeFactor)
      val labels = ds.labels.getOrElse(sys.error(s"$name must be labelled"))
      val holed = Missing.injectCells(ds.rows, cellProbs(name), seed + 1)
      def f1Of(data: Array[Array[Double]]): Double =
        Applications.classificationF1(data, labels, seed)
      val missingScore = f1Of(holed)
      val methods = Methods.iim(spark, name) +: Methods.withMean()
      val scores = methods.map { m =>
        m.name -> f1Of(Applications.imputeMatrix(holed, m, seed + 2))
      }.toMap
      Row(name, missingScore, scores)
    }

  def run(spark: SparkSession, sizeFactor: Double = 1.0, seed: Long = 42): Seq[Row] =
    clustering(spark, sizeFactor, seed) ++ classification(spark, sizeFactor, seed)

  def format(rows: Seq[Row]): String = {
    val header = (Seq("Dataset", "Missing") ++ methodColumns).map(s => f"$s%7s").mkString(" ")
    val lines = rows.map { r =>
      val cells = Seq(f"${r.dataset}%7s", f"${r.missing}%7.3f") ++
        methodColumns.map(c => r.scores.get(c).map(v => f"$v%7.3f").getOrElse(f"${"-"}%7s"))
      cells.mkString(" ")
    }
    (header +: lines).mkString("\n")
  }
}
