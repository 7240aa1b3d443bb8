package repro.apps

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{KnnImputer, MeanImputer}
import repro.data.{Generators, Missing}
import repro.ml.KMeans

class ApplicationsSpec extends AnyFunSuite {

  private def blobby(n: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new scala.util.Random(seed)
    Array.tabulate(n)(i =>
      if (i % 2 == 0) Array(rnd.nextGaussian() * 0.3, rnd.nextGaussian() * 0.3, 10.0 + rnd.nextGaussian() * 0.3)
      else Array(6.0 + rnd.nextGaussian() * 0.3, 6.0 + rnd.nextGaussian() * 0.3, 16.0 + rnd.nextGaussian() * 0.3))
  }

  test("imputeMatrix fills every NaN") {
    val holed = Missing.injectCells(blobby(200, 1), 0.2, seed = 2)
    val filled = Applications.imputeMatrix(holed, new MeanImputer(), seed = 3)
    assert(filled.flatten.forall(v => !v.isNaN))
  }

  test("imputeMatrix leaves observed cells untouched") {
    val data = blobby(150, 4)
    val holed = Missing.injectCells(data, 0.2, seed = 5)
    val filled = Applications.imputeMatrix(holed, new KnnImputer(3), seed = 6)
    for (i <- holed.indices; a <- holed(i).indices if !holed(i)(a).isNaN)
      assert(filled(i)(a) == holed(i)(a))
  }

  test("imputeMatrix with Mean writes the column mean of observed values") {
    val data = Array(Array(1.0, 10.0), Array(2.0, Double.NaN), Array(3.0, 20.0))
    val filled = Applications.imputeMatrix(data, new MeanImputer(), seed = 1)
    assert(filled(1)(1) == 15.0)
  }

  test("imputeMatrix requires at least one complete tuple") {
    val data = Array(Array(Double.NaN, 1.0), Array(2.0, Double.NaN))
    assertThrows[IllegalArgumentException](
      Applications.imputeMatrix(data, new MeanImputer(), seed = 1))
  }

  test("clusteringPurity of the original data against itself is 1") {
    val data = blobby(200, 7)
    val truth = KMeans.fit(data, 2, 8).labels
    assert(Applications.clusteringPurity(truth, data, k = 2, seed = 8) == 1.0)
  }

  test("kNN imputation restores clustering purity lost to missing values") {
    val data = blobby(300, 9)
    val holed = Missing.injectCells(data, 0.3, seed = 10)
    val truth = KMeans.fit(data, 2, 11).labels
    val withMissing = Applications.clusteringPurity(truth, holed, k = 2, seed = 11)
    val imputed = Applications.imputeMatrix(holed, new KnnImputer(5), seed = 12)
    val withImpute = Applications.clusteringPurity(truth, imputed, k = 2, seed = 11)
    assert(withImpute >= withMissing, s"imputed=$withImpute missing=$withMissing")
    assert(withImpute > 0.95)
  }

  test("classificationF1 is high on separable labelled data") {
    val ds = Generators.byName("MAM", seed = 13)
    val f1 = Applications.classificationF1(ds.rows, ds.labels.get, seed = 14)
    assert(f1 > 0.7, s"f1=$f1")
  }

  test("classificationF1 runs on NaN-holed data (the Missing column)") {
    val ds = Generators.byName("MAM", seed = 15, sizeFactor = 0.3)
    val holed = Missing.injectCells(ds.rows, 0.15, seed = 16)
    val f1 = Applications.classificationF1(holed, ds.labels.get, seed = 17)
    assert(f1 > 0.4 && f1 <= 1.0)
  }
}
