package repro.ml

import org.scalatest.funsuite.AnyFunSuite

class GmmFcmSpec extends AnyFunSuite {

  private def blobs(seed: Long): Array[Array[Double]] = {
    val rnd = new scala.util.Random(seed)
    Array.tabulate(200)(i =>
      if (i % 2 == 0) Array(rnd.nextGaussian() * 0.4, rnd.nextGaussian() * 0.4)
      else Array(8.0 + rnd.nextGaussian() * 0.4, 8.0 + rnd.nextGaussian() * 0.4))
  }

  test("Gmm recovers the two component means") {
    val model = Gmm.fit(blobs(1), 2, seed = 3)
    val means = model.means.map(m => (math.round(m(0)), math.round(m(1)))).toSet
    assert(means == Set((0L, 0L), (8L, 8L)))
  }

  test("Gmm weights sum to one and are balanced on balanced data") {
    val model = Gmm.fit(blobs(2), 2, seed = 3)
    assert(math.abs(model.weights.sum - 1.0) < 1e-6)
    assert(model.weights.forall(w => w > 0.3 && w < 0.7))
  }

  test("Gmm variances are positive") {
    val model = Gmm.fit(blobs(3), 2, seed = 3)
    assert(model.variances.flatten.forall(_ > 0))
  }

  test("Gmm logDensity peaks at the mean") {
    val mu = Array(1.0, 2.0); val va = Array(0.5, 0.5)
    val atMean = Gmm.logDensity(Array(1.0, 2.0), mu, va, Array(0, 1))
    val off = Gmm.logDensity(Array(3.0, 2.0), mu, va, Array(0, 1))
    assert(atMean > off)
  }

  test("Gmm logDensity over a dim subset matches manual computation") {
    val mu = Array(0.0, 5.0, 10.0); val va = Array(1.0, 1.0, 1.0)
    // Projected query (only dim 2 observed, value 10): density of N(10,1) at 10.
    val got = Gmm.logDensity(Array(10.0), mu, va, dims = Array(2))
    assert(math.abs(got - (-0.5 * math.log(2 * math.Pi))) < 1e-9)
  }

  test("FuzzyCMeans centroids land on the blobs") {
    val model = FuzzyCMeans.fit(blobs(4), 2, seed = 5)
    val cents = model.centroids.map(c => (math.round(c(0)), math.round(c(1)))).toSet
    assert(cents == Set((0L, 0L), (8L, 8L)))
  }

  test("FuzzyCMeans memberships are a partition of unity") {
    val model = FuzzyCMeans.fit(blobs(5), 3, seed = 5)
    model.membership.foreach(row => assert(math.abs(row.sum - 1.0) < 1e-6))
  }

  test("FuzzyCMeans membershipOf is crisp near a centroid") {
    val model = FuzzyCMeans.fit(blobs(6), 2, seed = 5)
    val nearFirst = FuzzyCMeans.membershipOf(model, model.centroids(0))
    assert(nearFirst(0) > 0.99)
  }

  test("FuzzyCMeans membershipOf is balanced at the midpoint") {
    val model = FuzzyCMeans.fit(blobs(7), 2, seed = 5)
    val mid = Array((model.centroids(0)(0) + model.centroids(1)(0)) / 2,
      (model.centroids(0)(1) + model.centroids(1)(1)) / 2)
    val u = FuzzyCMeans.membershipOf(model, mid)
    assert(math.abs(u(0) - u(1)) < 0.05)
  }

  test("Gmm and FuzzyCMeans are deterministic for fixed seeds") {
    val data = blobs(8)
    assert(Gmm.fit(data, 2, 9).means.flatten[Double].sameElements(Gmm.fit(data, 2, 9).means.flatten[Double]))
    assert(FuzzyCMeans.fit(data, 2, 9).centroids.flatten[Double]
      .sameElements(FuzzyCMeans.fit(data, 2, 9).centroids.flatten[Double]))
  }
}
