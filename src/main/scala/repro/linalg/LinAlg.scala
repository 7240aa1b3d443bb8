package repro.linalg

/** Minimal dense linear algebra for small systems.
  *
  * Everything operates on row-major `Array[Array[Double]]` and is sized for
  * regression over a handful of attributes (m ≤ ~20), where hand-rolled
  * Gaussian elimination / Jacobi sweeps are faster than a library round-trip
  * and keep the build free of extra dependencies.
  */
object LinAlg {
  type Vec = Array[Double]
  type Mat = Array[Array[Double]]

  /** rows×cols zero matrix. */
  def zeros(rows: Int, cols: Int): Mat = Array.fill(rows)(new Array[Double](cols))

  /** n×n identity. */
  def eye(n: Int): Mat = {
    val a = zeros(n, n); var i = 0
    while (i < n) { a(i)(i) = 1.0; i += 1 }
    a
  }

  /** Deep copy. */
  def copy(a: Mat): Mat = a.map(_.clone())

  /** Inner product. */
  def dot(x: Vec, y: Vec): Double = {
    var s = 0.0; var i = 0
    while (i < x.length) { s += x(i) * y(i); i += 1 }
    s
  }

  /** The one elimination: solves A·x = b by Gaussian elimination with
    * partial pivoting for the n×n matrix `a`, flat and row-major
    * (`a(r * n + c)`), with n = `x.length`, and writes the solution into
    * `x`. `a` and `b` are overwritten; nothing is allocated. A pivot swaps
    * row contents, so each entry sees the same operations in the same order
    * as elimination over row references. Throws on (numerically) singular
    * A, naming the column.
    */
  def solveInPlace(a: Array[Double], b: Vec, x: Vec): Unit = {
    val n = x.length
    var col = 0
    while (col < n) {
      val top = col * n
      var piv = col; var best = math.abs(a(top + col))
      var r = col + 1
      while (r < n) { val v = math.abs(a(r * n + col)); if (v > best) { best = v; piv = r }; r += 1 }
      // Not `require`: its by-name message would be a closure per column.
      if (!(best > 1e-12)) throw new IllegalArgumentException(s"requirement failed: singular matrix at column $col")
      if (piv != col) {
        // Columns left of `col` are never read again, so they need not move.
        val po = piv * n
        var j = col
        while (j < n) { val t = a(po + j); a(po + j) = a(top + j); a(top + j) = t; j += 1 }
        val tb = b(piv); b(piv) = b(col); b(col) = tb
      }
      val d = a(top + col)
      r = col + 1
      while (r < n) {
        val ro = r * n
        val f = a(ro + col) / d
        if (f != 0.0) {
          var j = col
          while (j < n) { a(ro + j) -= f * a(top + j); j += 1 }
          b(r) -= f * b(col)
        }
        r += 1
      }
      col += 1
    }
    var i = n - 1
    while (i >= 0) {
      val io = i * n
      var s = b(i); var j = i + 1
      while (j < n) { s -= a(io + j) * x(j); j += 1 }
      x(i) = s / a(io + i)
      i -= 1
    }
  }

  /** Lower Cholesky factor L with A = L·Lᵀ of a symmetric positive-definite
    * matrix. Used for posterior draws in the BLR baseline.
    */
  def cholesky(a: Mat): Mat = {
    val n = a.length
    val l = zeros(n, n)
    var i = 0
    while (i < n) {
      var j = 0
      while (j <= i) {
        var s = 0.0; var k = 0
        while (k < j) { s += l(i)(k) * l(j)(k); k += 1 }
        if (i == j) {
          val d = a(i)(i) - s
          require(d > 0.0, s"matrix not positive definite at $i")
          l(i)(j) = math.sqrt(d)
        } else l(i)(j) = (a(i)(j) - s) / l(j)(j)
        j += 1
      }
      i += 1
    }
    l
  }

  /** Eigen-decomposition of a symmetric matrix by cyclic Jacobi sweeps.
    * Returns (eigenvalues, eigenvectors-as-columns) sorted by descending
    * eigenvalue. Used by the SVD-impute baseline (m×m covariance).
    */
  def symEigen(a0: Mat, sweeps: Int = 64): (Vec, Mat) = {
    val n = a0.length
    val a = copy(a0)
    val v = eye(n)
    var sweep = 0
    var off = offDiag(a)
    while (sweep < sweeps && off > 1e-12) {
      var p = 0
      while (p < n - 1) {
        var q = p + 1
        while (q < n) {
          val apq = a(p)(q)
          if (math.abs(apq) > 1e-15) {
            val theta = (a(q)(q) - a(p)(p)) / (2.0 * apq)
            val t = math.signum(theta) / (math.abs(theta) + math.sqrt(theta * theta + 1.0)) match {
              case 0.0 => 1.0 / (math.abs(theta) + math.sqrt(theta * theta + 1.0))
              case x   => x
            }
            val c = 1.0 / math.sqrt(t * t + 1.0)
            val s = t * c
            rotate(a, v, p, q, c, s, n)
          }
          q += 1
        }
        p += 1
      }
      off = offDiag(a)
      sweep += 1
    }
    val eigs = Array.tabulate(n)(i => (a(i)(i), i)).sortBy(-_._1)
    val vals = eigs.map(_._1)
    val vecs = zeros(n, n)
    var j = 0
    while (j < n) {
      val src = eigs(j)._2
      var i = 0
      while (i < n) { vecs(i)(j) = v(i)(src); i += 1 }
      j += 1
    }
    (vals, vecs)
  }

  private def offDiag(a: Mat): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) {
      var j = i + 1
      while (j < a.length) { s += a(i)(j) * a(i)(j); j += 1 }
      i += 1
    }
    s
  }

  /** One Jacobi rotation on rows/cols p,q of a (symmetric) and accumulate in v. */
  private def rotate(a: Mat, v: Mat, p: Int, q: Int, c: Double, s: Double, n: Int): Unit = {
    val app = a(p)(p); val aqq = a(q)(q); val apq = a(p)(q)
    a(p)(p) = c * c * app - 2.0 * s * c * apq + s * s * aqq
    a(q)(q) = s * s * app + 2.0 * s * c * apq + c * c * aqq
    a(p)(q) = 0.0; a(q)(p) = 0.0
    var i = 0
    while (i < n) {
      if (i != p && i != q) {
        val aip = a(i)(p); val aiq = a(i)(q)
        a(i)(p) = c * aip - s * aiq; a(p)(i) = a(i)(p)
        a(i)(q) = s * aip + c * aiq; a(q)(i) = a(i)(q)
      }
      val vip = v(i)(p); val viq = v(i)(q)
      v(i)(p) = c * vip - s * viq
      v(i)(q) = s * vip + c * viq
      i += 1
    }
  }
}
