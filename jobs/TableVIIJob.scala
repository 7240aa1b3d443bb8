package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables.TableVII

/** spark-submit entrypoint reproducing Table VII (clustering purity and
  * classification F1 with/without imputation). Args: [sizeFactor] [seed].
  */
object TableVIIJob {
  def main(args: Array[String]): Unit = {
    val sizeFactor = args.headOption.map(_.toDouble).getOrElse(1.0)
    val seed = args.lift(1).map(_.toLong).getOrElse(42L)
    val spark = SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("iim-table-vii").getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try println(TableVII.format(TableVII.run(spark, sizeFactor, seed)))
    finally spark.stop()
  }
}
