package repro.ml

import scala.util.Random

/** Lloyd's KMeans with kmeans++ seeding.
  *
  * Substrate for the Table VII clustering application (the paper uses Weka's
  * kmeans). The NaN-aware variant clusters data that still contains missing
  * values — distances and centroid updates only use observed dimensions —
  * which implements the un-imputed "Missing" column of Table VII.
  */
object KMeans {

  final case class Model(centroids: Array[Array[Double]], labels: Array[Int])

  private def dist2(x: Array[Double], c: Array[Double]): Double = {
    var s = 0.0; var cnt = 0; var j = 0
    while (j < x.length) {
      val v = x(j)
      if (!v.isNaN) { val d = v - c(j); s += d * d; cnt += 1 }
      j += 1
    }
    if (cnt == 0) 0.0 else s * x.length / cnt // rescale so sparse rows compare fairly
  }

  /** Fit k clusters; `data` may contain NaN (ignored per-dimension). */
  def fit(data: Array[Array[Double]], k: Int, seed: Long, maxIters: Int = 50): Model = {
    require(data.nonEmpty && k >= 1, "need data and k >= 1")
    val rnd = new Random(seed)
    val m = data(0).length
    // kmeans++ seeding on observed-dimension distance.
    val centroids = new Array[Array[Double]](k)
    centroids(0) = data(rnd.nextInt(data.length)).clone()
    var c = 1
    while (c < k) {
      val d2 = data.map(x => (0 until c).map(j => dist2(x, centroids(j))).min)
      val total = d2.sum
      val pick = if (total <= 0.0) rnd.nextInt(data.length)
      else {
        var r = rnd.nextDouble() * total; var i = 0
        while (i < data.length - 1 && r > d2(i)) { r -= d2(i); i += 1 }
        i
      }
      centroids(c) = data(pick).clone()
      c += 1
    }
    // Replace NaN centroid entries with 0 so they are usable immediately.
    centroids.foreach { ct => var j = 0; while (j < m) { if (ct(j).isNaN) ct(j) = 0.0; j += 1 } }

    val labels = new Array[Int](data.length)
    var iter = 0
    var moved = true
    while (iter < maxIters && moved) {
      moved = false
      var i = 0
      while (i < data.length) {
        var best = 0; var bd = dist2(data(i), centroids(0))
        var j = 1
        while (j < k) { val d = dist2(data(i), centroids(j)); if (d < bd) { bd = d; best = j }; j += 1 }
        if (labels(i) != best) { labels(i) = best; moved = true }
        i += 1
      }
      // Centroid update over observed entries only.
      val sums = Array.fill(k)(new Array[Double](m))
      val cnts = Array.fill(k)(new Array[Int](m))
      var r = 0
      while (r < data.length) {
        val x = data(r); val l = labels(r)
        var j = 0
        while (j < m) { if (!x(j).isNaN) { sums(l)(j) += x(j); cnts(l)(j) += 1 }; j += 1 }
        r += 1
      }
      var j = 0
      while (j < k) {
        var a = 0
        while (a < m) { if (cnts(j)(a) > 0) centroids(j)(a) = sums(j)(a) / cnts(j)(a); a += 1 }
        j += 1
      }
      iter += 1
    }
    Model(centroids, labels)
  }
}
