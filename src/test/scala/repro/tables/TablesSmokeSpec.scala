package repro.tables

import org.apache.spark.sql.SparkSession
import repro.SparkSpec

/** Small-scale smoke runs of every table harness; the full-size runs live in
  * the bench project (one suite per table).
  */
class TablesSmokeSpec extends SparkSpec {

  test("TableIII: incremental learning is exact and at least as fast") {
    val r = TableIII.run(n = 300, lMax = 120, step = 2)
    assert(r.identical, "incremental and from-scratch candidate models must agree bitwise")
    assert(r.speedup > 1.0, s"speedup=${r.speedup}")
  }

  test("TableV smoke: all methods produce finite RMS on every dataset") {
    val rows = TableV.run(spark, sizeFactor = 0.04, seed = 7)
    assert(rows.map(_.dataset) == TableV.datasets)
    rows.foreach { r =>
      assert(r.rms.nonEmpty)
      r.rms.foreach { case (m, v) => assert(!v.isNaN && !v.isInfinite && v >= 0.0, s"${r.dataset}/$m") }
      assert(r.rms.contains("IIM"))
    }
  }

  test("TableV smoke: SN row skips SVD/ILLS/XGB as in the paper") {
    val rows = TableV.run(spark, sizeFactor = 0.04, seed = 8)
    val sn = rows.find(_.dataset == "SN").get
    assert(Methods.skippedOnSn.forall(m => !sn.rms.contains(m)))
  }

  test("TableV formatting renders one line per dataset plus a header") {
    val rows = TableV.run(spark, sizeFactor = 0.04, seed = 9)
    val text = TableV.format(rows)
    assert(text.linesIterator.size == rows.size + 1)
    assert(text.contains("IIM") && text.contains("R2_S"))
  }

  test("TableVI smoke: one row per ASF attribute, all finite") {
    val rows = TableVI.run(spark, sizeFactor = 0.15, seed = 10)
    assert(rows.map(_.attr) == (0 until 6))
    rows.foreach(r => r.rms.values.foreach(v => assert(!v.isNaN && !v.isInfinite)))
  }

  test("TableVII clustering smoke: scores in [0,1] and IIM present") {
    val rows = TableVII.clustering(spark, sizeFactor = 0.12, seed = 11)
    assert(rows.map(_.dataset) == Seq("ASF", "CA"))
    rows.foreach { r =>
      assert(r.missing >= 0.0 && r.missing <= 1.0)
      assert(r.scores.contains("IIM") && r.scores.contains("Mean"))
      r.scores.values.foreach(v => assert(v >= 0.0 && v <= 1.0))
    }
  }

  test("TableVII classification smoke: scores in [0,1]") {
    val rows = TableVII.classification(spark, sizeFactor = 0.25, seed = 12)
    assert(rows.map(_.dataset) == Seq("MAM", "HEP"))
    rows.foreach(r => r.scores.values.foreach(v => assert(v >= 0.0 && v <= 1.0)))
  }

  // Hand-built rows with missing columns and negative values; the expected
  // strings are the output of the per-table formatters the shared layout replaced.
  private val cells = Map("IIM" -> 0.123, "kNN" -> -1.5, "GLR" -> 12.345, "XGB" -> 0.005)

  test("TableV.format lays out hand-built rows as before") {
    val text = TableV.format(Seq(TableV.Row("CA", 0.456, -0.2, cells), TableV.Row("SN", 1.0, 0.0, Map("IIM" -> 3.14159))))
    assert(text ==
      " Dataset     R2_S     R2_H      IIM      kNN     kNNE      IFC      GMM      SVD     ILLS      GLR    LOESS      BLR   ERACER      PMM      XGB\n" +
      "      CA     0.46    -0.20     0.12    -1.50        -        -        -        -        -    12.35        -        -        -        -     0.01\n" +
      "      SN     1.00     0.00     3.14        -        -        -        -        -        -        -        -        -        -        -        -")
  }

  test("TableVI.format lays out hand-built rows as before") {
    val text = TableVI.format(Seq(TableVI.Row(0, -0.05, 0.999, cells), TableVI.Row(5, 0.5, 0.25, Map.empty)))
    assert(text ==
      "    Attr     R2_S     R2_H      IIM      kNN     kNNE      IFC      GMM      SVD     ILLS      GLR    LOESS      BLR   ERACER      PMM      XGB\n" +
      "      A1    -0.05     1.00     0.12    -1.50        -        -        -        -        -    12.35        -        -        -        -     0.01\n" +
      "      A6     0.50     0.25        -        -        -        -        -        -        -        -        -        -        -        -        -")
  }

  test("TableVII.format lays out hand-built rows as before") {
    val text = TableVII.format(Seq(TableVII.Row("ASF", 0.8125, Map("IIM" -> 0.9, "Mean" -> -0.25, "PMM" -> 0.1234)),
      TableVII.Row("HEP", 0.5, Map("XGB" -> 1.0))))
    assert(text ==
      "Dataset Missing     IIM    Mean     kNN    kNNE     IFC     GMM     SVD    ILLS     GLR   LOESS     BLR  ERACER     PMM     XGB\n" +
      "    ASF   0.813   0.900  -0.250       -       -       -       -       -       -       -       -       -       -   0.123       -\n" +
      "    HEP   0.500       -       -       -       -       -       -       -       -       -       -       -       -       -   1.000")
  }

  test("TableJob rejects an unknown table before any SparkSession starts") {
    // A job that got a session would get this shared one and stop it.
    val live = spark
    val e = intercept[IllegalArgumentException](repro.jobs.TableJob.main(Array("IV")))
    assert(e.getMessage.contains("unknown table IV"), e.getMessage)
    assert(SparkSession.getDefaultSession.contains(live) && !live.sparkContext.isStopped)
  }

  test("Methods roster matches the paper's Table II comparison set") {
    val names = Methods.baselines().map(_.name)
    assert(names == Seq("kNN", "kNNE", "IFC", "GMM", "SVD", "ILLS", "GLR", "LOESS", "BLR", "ERACER", "PMM", "XGB"))
    assert(Methods.withMean().head.name == "Mean")
  }

  test("per-dataset IIM params use wider stepping on the big datasets") {
    assert(Methods.iimParams("SN").step > Methods.iimParams("ASF").step)
  }
}
