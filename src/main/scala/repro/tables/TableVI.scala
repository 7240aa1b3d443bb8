package repro.tables

import org.apache.spark.sql.SparkSession
import repro.data.{Generators, Missing, Quality}

/** Table VI: imputation RMS per incomplete attribute A1..A6 over ASF with
  * 100 incomplete tuples (§VI-B2).
  */
object TableVI {

  final case class Row(attr: Int, r2s: Double, r2h: Double, rms: Map[String, Double])

  def run(spark: SparkSession, sizeFactor: Double = 1.0, seed: Long = 42): Seq[Row] = {
    val ds = Generators.byName("ASF", seed, sizeFactor)
    val m = ds.m
    (0 until m).map { attr =>
      val problem = Missing.inject(ds.rows, frac = 0.0, seed = seed + attr, attr = attr, count = 100)
      val (r2s, r2h) = Quality.r2(problem, attr)
      val methods = Methods.iim(spark, "ASF") +: Methods.baselines()
      val rms = methods.map(meth => meth.name -> TableV.rmsOf(problem, meth, seed + 2)).toMap
      Row(attr, r2s, r2h, rms)
    }
  }

  def format(rows: Seq[Row]): String =
    TableV.layout(8, 2, Seq("Attr", "R2_S", "R2_H"), TableV.columns,
      rows.map(r => ("A" + (r.attr + 1), Seq(r.r2s, r.r2h), r.rms)))
}
