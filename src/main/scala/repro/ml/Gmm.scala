package repro.ml

/** Diagonal-covariance Gaussian mixture fitted by EM; substrate of the GMM
  * imputation baseline ("cluster average" in Table II).
  */
object Gmm {

  /** @param weights   mixing proportions π_c
    * @param means     c×m component means
    * @param variances c×m per-dimension variances (diagonal Σ)
    */
  final case class Model(weights: Array[Double], means: Array[Array[Double]], variances: Array[Array[Double]])

  def fit(data: Array[Array[Double]], c: Int, seed: Long, maxIters: Int = 30): Model = {
    require(c >= 1 && data.nonEmpty, "need data and c >= 1")
    val n = data.length; val m = data(0).length
    // Init from (NaN-free) KMeans for stability.
    val km = KMeans.fit(data, c, seed)
    val w = new Array[Double](c)
    val mu = km.centroids.map(_.clone())
    val va = Array.fill(c)(Array.fill(m)(1.0))
    var j = 0
    while (j < c) {
      val members = km.labels.zipWithIndex.filter(_._1 == j).map(_._2)
      w(j) = math.max(members.length.toDouble / n, 1e-6)
      if (members.nonEmpty) {
        var a = 0
        while (a < m) {
          val vs = members.map(i => data(i)(a))
          val mean = vs.sum / vs.length
          va(j)(a) = math.max(vs.map(v => (v - mean) * (v - mean)).sum / vs.length, 1e-6)
          a += 1
        }
      }
      j += 1
    }

    val resp = Array.fill(n)(new Array[Double](c))
    val allDims = Array.range(0, m)
    var iter = 0
    while (iter < maxIters) {
      // E step: responsibilities via log-density, stabilised.
      var i = 0
      while (i < n) {
        val lp = Array.tabulate(c)(j2 => math.log(w(j2)) + logDensity(data(i), mu(j2), va(j2), allDims))
        val mx = lp.max
        var s = 0.0
        var j2 = 0
        while (j2 < c) { resp(i)(j2) = math.exp(lp(j2) - mx); s += resp(i)(j2); j2 += 1 }
        j2 = 0
        while (j2 < c) { resp(i)(j2) /= s; j2 += 1 }
        i += 1
      }
      // M step.
      var j2 = 0
      while (j2 < c) {
        var nk = 0.0
        val num = new Array[Double](m)
        i = 0
        while (i < n) {
          val r = resp(i)(j2); nk += r
          var a = 0
          while (a < m) { num(a) += r * data(i)(a); a += 1 }
          i += 1
        }
        nk = math.max(nk, 1e-9)
        var a = 0
        while (a < m) { mu(j2)(a) = num(a) / nk; a += 1 }
        val vnum = new Array[Double](m)
        i = 0
        while (i < n) {
          val r = resp(i)(j2)
          var a2 = 0
          while (a2 < m) { val d = data(i)(a2) - mu(j2)(a2); vnum(a2) += r * d * d; a2 += 1 }
          i += 1
        }
        a = 0
        while (a < m) { va(j2)(a) = math.max(vnum(a) / nk, 1e-6); a += 1 }
        w(j2) = nk / n
        j2 += 1
      }
      iter += 1
    }
    Model(w, mu, va)
  }

  /** log N(x | μ, diag(σ²)) over the dimensions `dims`; `x` is projected on them. */
  def logDensity(x: Array[Double], mu: Array[Double], va: Array[Double], dims: Array[Int]): Double = {
    var s = 0.0
    var p = 0
    while (p < dims.length) {
      val a = dims(p)
      val d = x(p) - mu(a)
      s += -0.5 * (math.log(2.0 * math.Pi * va(a)) + d * d / va(a))
      p += 1
    }
    s
  }
}
