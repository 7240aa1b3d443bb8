package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables.{TableIII, TableV, TableVI, TableVII}

/** spark-submit entrypoint reproducing one of the paper's tables:
  *  - `III [n] [lMax] [step]`: from-scratch vs incremental learning cost (no
  *    Spark needed, the claim is about per-model arithmetic);
  *  - `V [sizeFactor] [seed]`: imputation RMS over the 7 datasets;
  *  - `VI [sizeFactor] [seed]`: per-attribute RMS on ASF;
  *  - `VII [sizeFactor] [seed]`: clustering purity and classification F1
  *    with and without imputation.
  * An unknown table name is rejected before any SparkSession starts.
  */
object TableJob {
  def main(args: Array[String]): Unit = {
    val rest = args.drop(1)
    def int(i: Int, default: Int): Int = rest.lift(i).map(_.toInt).getOrElse(default)
    def sizeFactor: Double = rest.headOption.map(_.toDouble).getOrElse(1.0)
    def seed: Long = rest.lift(1).map(_.toLong).getOrElse(42L)
    args.headOption match {
      case Some("III") => println(TableIII.format(TableIII.run(int(0, 800), int(1, 300), int(2, 1))))
      case Some("V") => onSpark("v")(spark => TableV.format(TableV.run(spark, sizeFactor, seed)))
      case Some("VI") => onSpark("vi")(spark => TableVI.format(TableVI.run(spark, sizeFactor, seed)))
      case Some("VII") => onSpark("vii")(spark => TableVII.format(TableVII.run(spark, sizeFactor, seed)))
      case other =>
        throw new IllegalArgumentException(s"unknown table ${other.getOrElse("(none)")}; expected III, V, VI or VII")
    }
  }

  /** Prints the table `run` formats on a fresh SparkSession, then stops it. */
  private def onSpark(table: String)(run: SparkSession => String): Unit = {
    val spark = SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"iim-table-$table").getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try println(run(spark))
    finally spark.stop()
  }
}
