package repro.ml

import scala.util.Random

/** Fuzzy c-means clustering (fuzzifier p), the substrate of the IFC baseline
  * ("iterative fuzzy clustering, cluster average" in Table II).
  */
object FuzzyCMeans {

  /** @param centroids c×m cluster centres
    * @param membership n×c soft assignments, rows sum to 1
    */
  final case class Model(centroids: Array[Array[Double]], membership: Array[Array[Double]])

  def fit(data: Array[Array[Double]], c: Int, seed: Long,
          fuzzifier: Double = 2.0, maxIters: Int = 30): Model = {
    require(c >= 1 && data.nonEmpty, "need data and c >= 1")
    val rnd = new Random(seed)
    val n = data.length; val m = data(0).length
    // Random membership init, normalised per row.
    val u = Array.fill(n) {
      val row = Array.fill(c)(rnd.nextDouble() + 1e-3)
      val s = row.sum; row.map(_ / s)
    }
    val cent = Array.fill(c)(new Array[Double](m))
    var iter = 0
    while (iter < maxIters) {
      // Centroids: weighted mean with weights u^p.
      var j = 0
      while (j < c) {
        val num = new Array[Double](m); var den = 0.0
        var i = 0
        while (i < n) {
          val w = math.pow(u(i)(j), fuzzifier)
          den += w
          var a = 0
          while (a < m) { num(a) += w * data(i)(a); a += 1 }
          i += 1
        }
        var a = 0
        while (a < m) { cent(j)(a) = if (den > 0) num(a) / den else 0.0; a += 1 }
        j += 1
      }
      var i = 0
      while (i < n) { u(i) = membership(cent, data(i), fuzzifier); i += 1 }
      iter += 1
    }
    Model(cent, u)
  }

  /** Soft assignment of a new point (the membership formula of [[fit]]). */
  def membershipOf(model: Model, x: Array[Double], fuzzifier: Double = 2.0): Array[Double] =
    membership(model.centroids, x, fuzzifier)

  /** u_j = 1 / Σ_l (d_j/d_l)^(2/(p-1)), with d_j the Euclidean distance from
    * `x` to centroid j; a point on a centroid belongs to it alone.
    */
  private def membership(centroids: Array[Array[Double]], x: Array[Double], fuzzifier: Double): Array[Double] = {
    val c = centroids.length
    val d = Array.tabulate(c) { j =>
      var s = 0.0; var a = 0
      while (a < x.length) { val t = x(a) - centroids(j)(a); s += t * t; a += 1 }
      math.sqrt(s)
    }
    val zero = d.indexWhere(_ < 1e-12)
    if (zero >= 0) Array.tabulate(c)(j => if (j == zero) 1.0 else 0.0)
    else {
      val pow = 2.0 / (fuzzifier - 1.0)
      Array.tabulate(c) { j =>
        var s = 0.0; var l = 0
        while (l < c) { s += math.pow(d(j) / d(l), pow); l += 1 }
        1.0 / s
      }
    }
  }
}
