package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables.TableVI

/** spark-submit entrypoint reproducing Table VI (per-attribute RMS on ASF).
  * Args: [sizeFactor] [seed].
  */
object TableVIJob {
  def main(args: Array[String]): Unit = {
    val sizeFactor = args.headOption.map(_.toDouble).getOrElse(1.0)
    val seed = args.lift(1).map(_.toLong).getOrElse(42L)
    val spark = SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("iim-table-vi").getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try println(TableVI.format(TableVI.run(spark, sizeFactor, seed)))
    finally spark.stop()
  }
}
