package repro.apps

import repro.core.Imputer
import repro.ml.{KMeans, KnnClassifier, Metrics}

/** The §VI-D downstream applications: clustering (purity) and classification
  * (weighted F1) over data with and without imputation.
  */
object Applications {

  /** Fill every NaN cell of `data` with `imputer`, one attribute at a time
    * (§II: "multiple incomplete attributes … addressed one by one").
    *
    * The complete relation is the subset of fully observed rows. For rows
    * with several missing attributes, the other missing features of a query
    * start as column means and are refined over `passes` chained rounds
    * (MICE-style), so regression-based methods are not fed mean-patched
    * placeholder features on the final round.
    */
  def imputeMatrix(data: Array[Array[Double]], imputer: Imputer, seed: Long,
                   passes: Int = 2): Array[Array[Double]] = {
    val m = data(0).length
    val complete = data.filter(r => !r.exists(_.isNaN))
    require(complete.nonEmpty, "no fully complete tuples to learn from")
    val colMeans = Array.tabulate(m) { a =>
      val vs = data.map(_(a)).filterNot(_.isNaN)
      if (vs.isEmpty) 0.0 else vs.sum / vs.length
    }
    // Current estimate of every cell; missing cells start at the column mean.
    val est = data.map(_.clone())
    for (r <- est; a <- 0 until m if r(a).isNaN) r(a) = colMeans(a)
    var pass = 0
    while (pass < passes) {
      var attr = 0
      while (attr < m) {
        val missingRows = data.indices.filter(i => data(i)(attr).isNaN).toArray
        if (missingRows.nonEmpty) {
          val featIdx = (0 until m).filter(_ != attr).toArray
          val queries = missingRows.map(i => featIdx.map(a => est(i)(a)))
          val vals = imputer.imputeAll(complete, featIdx, attr, queries, seed + attr)
          var qi = 0
          while (qi < missingRows.length) { est(missingRows(qi))(attr) = vals(qi); qi += 1 }
        }
        attr += 1
      }
      pass += 1
    }
    est
  }

  /** Clustering application (§VI-D1): `truth` holds the KMeans labels of the
    * *original* complete data; purity measures how well clustering the
    * (imputed or still-holed) data with the same k and seed reproduces them.
    */
  def clusteringPurity(truth: Array[Int], holedOrImputed: Array[Array[Double]],
                       k: Int, seed: Long): Double =
    Metrics.purity(KMeans.fit(holedOrImputed, k, seed).labels, truth)

  /** Classification application (§VI-D2): 5-fold CV with the kNN classifier;
    * NaN-aware distance makes the un-imputed run well-defined.
    */
  def classificationF1(xs: Array[Array[Double]], ys: Array[Int], seed: Long,
                       k: Int = 5, folds: Int = 5): Double = {
    val (pred, truth) = KnnClassifier.crossValidate(xs, ys, k, folds, seed)
    Metrics.f1Weighted(pred, truth)
  }
}
