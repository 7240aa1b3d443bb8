package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core.Imputer
import repro.data.{Generators, Missing, Quality}
import repro.ml.Metrics

/** Table V: imputation RMS error of IIM vs the 13 baselines over the seven
  * truth-bearing datasets, plus each dataset's R²_S / R²_H.
  *
  * Protocol (§VI-B1): 5% of tuples become incomplete, each losing one random
  * attribute; attributes are imputed one by one; RMS is over all removed
  * cells. SN skips SVD/ILLS/XGB, as in the paper.
  */
object TableV {

  final case class Row(dataset: String, r2s: Double, r2h: Double, rms: Map[String, Double])

  val datasets: Seq[String] = Seq("ASF", "CA", "CCPP", "CCS", "DA", "PHASE", "SN")

  /** RMS of one method over all missing cells of a problem, grouped by attr. */
  def rmsOf(problem: Missing.Problem, method: Imputer, seed: Long): Double = {
    val m = problem.complete(0).length
    val truths = scala.collection.mutable.ArrayBuffer.empty[Double]
    val imputed = scala.collection.mutable.ArrayBuffer.empty[Double]
    problem.byAttr.toSeq.sortBy(_._1).foreach { case (attr, qs) =>
      val featIdx = (0 until m).filter(_ != attr).toArray
      val queries = qs.map(q => featIdx.map(q.row))
      val vals = method.imputeAll(problem.complete, featIdx, attr, queries, seed)
      truths ++= qs.map(_.truth)
      imputed ++= vals
    }
    Metrics.rms(truths.toArray, imputed.toArray)
  }

  def run(spark: SparkSession, sizeFactor: Double = 1.0, seed: Long = 42): Seq[Row] =
    datasets.map { name =>
      val ds = Generators.byName(name, seed, sizeFactor)
      val problem = Missing.inject(ds.rows, frac = 0.05, seed = seed + 1)
      val (r2s, r2h) = Quality.r2Avg(problem)
      val methods = Methods.iim(spark, name) +: Methods.baselines()
        .filterNot(m => name == "SN" && Methods.skippedOnSn(m.name))
      val rms = methods.map(m => m.name -> rmsOf(problem, m, seed + 2)).toMap
      Row(name, r2s, r2h, rms)
    }

  val columns: Seq[String] =
    Seq("IIM", "kNN", "kNNE", "IFC", "GMM", "SVD", "ILLS", "GLR", "LOESS", "BLR", "ERACER", "PMM", "XGB")

  def format(rows: Seq[Row]): String =
    layout(8, 2, Seq("Dataset", "R2_S", "R2_H"), columns, rows.map(r => (r.dataset, Seq(r.r2s, r.r2h), r.rms)))

  /** The layout of Tables V–VII: right-aligned cells `width` wide. A row is
    * its label, its leading scores, then one cell per entry of `columns`,
    * "-" where the row has no score.
    */
  private[tables] def layout(width: Int, decimals: Int, head: Seq[String], columns: Seq[String],
                             rows: Seq[(String, Seq[Double], Map[String, Double])]): String = {
    def text(s: String): String = s"%${width}s".format(s)
    def number(v: Double): String = s"%$width.${decimals}f".format(v)
    val lines = rows.map { case (label, lead, scores) =>
      (text(label) +: (lead.map(number) ++ columns.map(c => scores.get(c).map(number).getOrElse(text("-")))))
        .mkString(" ")
    }
    ((head ++ columns).map(text).mkString(" ") +: lines).mkString("\n")
  }
}
