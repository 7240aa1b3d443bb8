package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Neighbors, Ridge}

class AttributeModelImputersSpec extends AnyFunSuite {

  private val fi = Array(0, 1)
  private val ti = 2

  private def linearData(seed: Long = 1, noise: Double = 0.0, n: Int = 80): Array[Array[Double]] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n) {
      val x0 = rnd.nextDouble() * 10; val x1 = rnd.nextDouble() * 10
      Array(x0, x1, 2.0 + 1.5 * x0 - 0.5 * x1 + rnd.nextGaussian() * noise)
    }
  }

  test("GLR recovers an exact global linear relation (Formula 4)") {
    val data = linearData()
    val got = new GlrImputer(1e-9).imputeAll(data, fi, ti, Array(Array(3.0, 4.0)), 0L)(0)
    assert(math.abs(got - (2.0 + 4.5 - 2.0)) < 1e-6)
  }

  test("GLR is robust to moderate noise") {
    val data = linearData(noise = 0.2, n = 400)
    val got = new GlrImputer().imputeAll(data, fi, ti, Array(Array(5.0, 5.0)), 0L)(0)
    assert(math.abs(got - (2.0 + 7.5 - 2.5)) < 0.2)
  }

  test("GLR fails on heterogeneous two-street data (motivation for IIM)") {
    // Figure 1 regime: two streets with different regressions. The global fit
    // lands far from the first street's intercept.
    val rnd = new scala.util.Random(4)
    val data = Array.tabulate(100) { i =>
      if (i % 2 == 0) { val x = rnd.nextDouble() * 3; Array(x, 0.0, 5.0 - 0.9 * x) }
      else { val x = 8.0 + rnd.nextDouble() * 4; Array(x, 0.0, 1.1 * x - 4.3) }
    }
    val got = new GlrImputer().imputeAll(data, fi, ti, Array(Array(0.0, 0.0)), 0L)(0)
    assert(math.abs(got - 5.0) > 1.0, s"global model should miss the local intercept, got $got")
  }

  test("LOESS tracks local structure that GLR misses") {
    val rnd = new scala.util.Random(4)
    val data = Array.tabulate(200) { i =>
      val x = rnd.nextDouble() * 5
      if (i % 2 == 0) Array(x, 0.0, 10.0 + 2.0 * x) else Array(x + 10.0, 0.0, 50.0 - 2.0 * (x + 10.0))
    }
    val truth = 14.0
    val loess = new LoessImputer(span = 20).imputeAll(data, Array(0), ti, Array(Array(2.0)), 0L)(0)
    val glr = new GlrImputer().imputeAll(data, Array(0), ti, Array(Array(2.0)), 0L)(0)
    assert(math.abs(loess - truth) < math.abs(glr - truth))
  }

  test("LOESS on globally linear data matches the relation") {
    val data = linearData()
    val got = new LoessImputer().imputeAll(data, fi, ti, Array(Array(3.0, 3.0)), 0L)(0)
    assert(math.abs(got - (2.0 + 4.5 - 1.5)) < 0.25)
  }

  test("BLR is unbiased: mean of many draws approaches the GLR prediction") {
    val data = linearData(noise = 0.1, n = 150)
    val q = Array(Array(5.0, 5.0))
    val glr = new GlrImputer().imputeAll(data, fi, ti, q, 0L)(0)
    val draws = (1 to 60).map(s => new BlrImputer().imputeAll(data, fi, ti, q, s.toLong)(0))
    val mean = draws.sum / draws.length
    assert(math.abs(mean - glr) < 0.2, s"mean=$mean glr=$glr")
  }

  test("BLR adds posterior noise: draws vary across seeds") {
    val data = linearData(noise = 0.3)
    val q = Array(Array(5.0, 5.0))
    val a = new BlrImputer().imputeAll(data, fi, ti, q, 1L)(0)
    val b = new BlrImputer().imputeAll(data, fi, ti, q, 2L)(0)
    assert(a != b)
  }

  test("BLR is deterministic for a fixed seed") {
    val data = linearData(noise = 0.3)
    val q = Array(Array(5.0, 5.0))
    assert(new BlrImputer().imputeAll(data, fi, ti, q, 5L)(0) ==
      new BlrImputer().imputeAll(data, fi, ti, q, 5L)(0))
  }

  test("ERACER matches GLR on data with no neighbourhood signal") {
    val data = linearData(noise = 0.05, n = 120)
    val q = Array(Array(4.0, 6.0))
    val eracer = new EracerImputer().imputeAll(data, fi, ti, q, 0L)(0)
    val truth = 2.0 + 6.0 - 3.0
    assert(math.abs(eracer - truth) < 0.5)
  }

  test("ERACER produces finite results on clustered data") {
    val rnd = new scala.util.Random(6)
    val data = Array.tabulate(60)(i =>
      Array(rnd.nextDouble() + (i % 3) * 5, rnd.nextDouble(), (i % 3) * 10.0))
    val got = new EracerImputer().imputeAll(data, fi, ti, Array(Array(0.5, 0.5), Array(10.2, 0.5)), 0L)
    assert(got.forall(v => !v.isNaN && !v.isInfinite))
  }

  test("PMM returns an observed target value (never an arbitrary regression value)") {
    val data = linearData(noise = 0.5)
    val observed = data.map(_(ti)).toSet
    val got = new PmmImputer().imputeAll(data, fi, ti,
      Array(Array(1.0, 1.0), Array(5.0, 5.0), Array(9.0, 9.0)), 3L)
    got.foreach(v => assert(observed.contains(v)))
  }

  test("PMM donors come from the closest fitted values") {
    // Perfectly linear data: the donor pool brackets the prediction.
    val data = linearData(noise = 0.0)
    val q = Array(Array(5.0, 5.0))
    val pred = 2.0 + 7.5 - 2.5
    val got = new PmmImputer(donors = 3).imputeAll(data, fi, ti, q, 11L)(0)
    assert(math.abs(got - pred) < 1.0)
  }

  test("PMM is deterministic for a fixed seed") {
    val data = linearData(noise = 0.5)
    val q = Array(Array(2.0, 2.0))
    assert(new PmmImputer().imputeAll(data, fi, ti, q, 13L)(0) ==
      new PmmImputer().imputeAll(data, fi, ti, q, 13L)(0))
  }

  /** PMM as it was before its donors came from `Neighbors.Index`: a full
    * sort of the fitted values by (|f − ŷ|, index) per query.
    */
  private def sortedPool(fitted: Array[Double], yHat: Double, donors: Int): Array[Int] =
    fitted.indices.sortBy(i => (math.abs(fitted(i) - yHat), i)).take(donors).toArray

  private def referencePmm(complete: Array[Array[Double]], queries: Array[Array[Double]], donors: Int,
                           seed: Long): Array[Double] = {
    val rnd = new scala.util.Random(seed)
    val phi = GlrImputer.fit(complete, fi, ti, 1e-3)
    val fitted = complete.map(r => Ridge.predict(phi, Neighbors.project(r, fi)))
    queries.map { q =>
      val pool = sortedPool(fitted, Ridge.predict(phi, q), donors)
      complete(pool(rnd.nextInt(pool.length)))(ti)
    }
  }

  test("PMM donor pools equal the full sort by (|f - ŷ|, index), exact ties included") {
    val rnd = new scala.util.Random(21)
    // Features on a 0.1 grid repeat, so fitted values and ŷ tie exactly.
    def grid(): Double = rnd.nextInt(11) / 10.0
    val n = 150
    val data = Array.fill(n) {
      val x0 = grid(); val x1 = grid()
      Array(x0, x1, 2.0 + 1.5 * x0 - 0.5 * x1 + rnd.nextGaussian())
    }
    val queries = Array.fill(40)(Array(grid(), grid())) ++ Array(Array(-3.0, 0.25), Array(0.55, 7.0))
    val fitted1d = Array.fill(n)(grid())
    for (donors <- Seq(1, 5, n, n + 3)) {
      val index = Neighbors.Index(fitted1d.map(Array(_)), Array(0))
      (fitted1d.distinct ++ Seq(0.05, 0.35, -1.0, 2.0)).foreach { y =>
        assert(index.nearest(Array(y), donors).sameElements(sortedPool(fitted1d, y, donors)),
          s"donors=$donors ŷ=$y")
      }
      (1L to 5L).foreach { seed =>
        val got = new PmmImputer(donors).imputeAll(data, fi, ti, queries, seed)
        assert(got.sameElements(referencePmm(data, queries, donors, seed)), s"donors=$donors seed=$seed")
      }
    }
  }

  test("PMM rejects a non-finite query feature, naming it") {
    val data = linearData()
    val e = intercept[IllegalArgumentException] {
      new PmmImputer().imputeAll(data, fi, ti, Array(Array(1.0, 1.0), Array(2.0, Double.NaN)), 0L)
    }
    assert(e.getMessage.contains("query 1: query feature 1 is not finite"), e.getMessage)
  }

  test("attribute-model imputer names match Table II") {
    assert(new GlrImputer().name == "GLR")
    assert(new LoessImputer().name == "LOESS")
    assert(new BlrImputer().name == "BLR")
    assert(new EracerImputer().name == "ERACER")
    assert(new PmmImputer().name == "PMM")
  }
}
