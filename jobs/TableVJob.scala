package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables.TableV

/** spark-submit entrypoint reproducing Table V (imputation RMS, 7 datasets).
  * Args: [sizeFactor] [seed].
  */
object TableVJob {
  def main(args: Array[String]): Unit = {
    val sizeFactor = args.headOption.map(_.toDouble).getOrElse(1.0)
    val seed = args.lift(1).map(_.toLong).getOrElse(42L)
    val spark = SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("iim-table-v").getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try println(TableV.format(TableV.run(spark, sizeFactor, seed)))
    finally spark.stop()
  }
}
