package repro.core

import repro.linalg.LinAlg
import repro.linalg.LinAlg.{Mat, Vec}

/** Ridge regression with intercept (paper Formula 5):
  *
  *   φ = (XᵀX + αE)⁻¹ XᵀY,  with rows of X being (1, x₁ … x_{m-1}).
  *
  * This object owns the whole ridge decision. [[Ridge.State]] carries
  * U = XᵀX and V = XᵀY so that rows can be appended one at a time — exactly
  * Proposition 3 of the paper, which makes the per-ℓ learning cost constant
  * instead of linear in ℓ — and solves (U + αE)⁻¹V in place, in buffers it
  * owns, so neither a row nor a solve allocates. Every ridge fit (IIM and
  * the regression baselines) accumulates through `State`; the SVD baseline
  * shares only [[Ridge.solve]]. Every solve runs the one elimination,
  * [[LinAlg.solveInPlace]].
  */
object Ridge {

  /** Accumulator of the normal equations over appended rows, with the
    * scratch its in-place solve works in. Not thread-safe: one per thread.
    */
  final class State(val nFeatures: Int, val alpha: Double) {
    private val d = nFeatures + 1
    /** U = XᵀX over all rows added so far (d×d, flat row-major, includes the
      * intercept column); read it through [[u]].
      */
    private val uf = new Array[Double](d * d)
    /** V = XᵀY over all rows added so far. */
    val v: Vec = new Array[Double](d)
    // Scratch of solveInto: U + αE and the right-hand side, eliminated in place.
    private val a = new Array[Double](d * d)
    private val b = new Array[Double](d)
    private lazy val identity = Array.range(0, nFeatures)

    /** Entry (i, j) of U. */
    def u(i: Int, j: Int): Double = uf(i * d + j)

    /** Append one observation (feature vector without the leading 1) scaled
      * by `s`: the augmented row s·(1, x) with target s·y. Weighted least
      * squares with row weight w is s = √w; with s = 1 every product is
      * exact, so the unweighted sums carry no rounding from the scale.
      */
    def add(x: Vec, y: Double, s: Double = 1.0): Unit = {
      require(x.length == nFeatures, s"expected $nFeatures features, got ${x.length}")
      add(x, identity, y, s)
    }

    /** [[add]] of the row `row` projected onto `featIdx`, read in place. */
    def add(row: Array[Double], featIdx: Array[Int], y: Double, s: Double): Unit = {
      // Accumulate aᵀa into U and aᵀ(s·y) into V for a = s·(1, x).
      val sy = s * y
      uf(0) += s * s
      v(0) += s * s * y
      var i = 0
      while (i < nFeatures) {
        val xi = s * row(featIdx(i))
        val ro = (i + 1) * d
        uf(i + 1) += s * xi
        uf(ro) += s * xi
        v(i + 1) += xi * sy
        var j = 0
        while (j < nFeatures) { uf(ro + j + 1) += xi * (s * row(featIdx(j))); j += 1 }
        i += 1
      }
    }

    /** Writes (U + αE)⁻¹ `rhs` into `out` (both of length nFeatures + 1)
      * without allocating; U, V and `rhs` are not mutated.
      */
    def solveInto(rhs: Vec, out: Vec): Unit = {
      System.arraycopy(uf, 0, a, 0, d * d)
      System.arraycopy(rhs, 0, b, 0, d)
      Ridge.solveFlat(a, b, alpha, out)
    }

    /** Solve (U + αE)⁻¹ V for the current rows. */
    def solve(): Vec = {
      val out = new Array[Double](d)
      solveInto(v, out)
      out
    }
  }

  /** The regularised solve (U + αE)⁻¹V of Formula 5; `u` and `v` are not
    * mutated.
    */
  def solve(u: Mat, v: Vec, alpha: Double): Vec = {
    val x = new Array[Double](u.length)
    solveFlat(u.flatten, v.clone(), alpha, x)
    x
  }

  /** (A + αE)⁻¹ b into `x`, for a flat row-major copy `a` of U and a copy
    * `b` of the right-hand side; both are overwritten.
    */
  private def solveFlat(a: Array[Double], b: Vec, alpha: Double, x: Vec): Unit = {
    val n = x.length
    var i = 0
    while (i < n) { a(i * n + i) += alpha; i += 1 }
    LinAlg.solveInPlace(a, b, x)
  }

  /** Batch fit over the given rows (features without intercept). */
  def fit(xs: Array[Vec], ys: Vec, alpha: Double): Vec = {
    require(xs.nonEmpty, "cannot fit on zero rows")
    val st = new State(xs(0).length, alpha)
    var i = 0
    while (i < xs.length) { st.add(xs(i), ys(i)); i += 1 }
    st.solve()
  }

  /** Weighted fit (row weights w ≥ 0), used by the LOESS baseline: OLS on
    * rows scaled by √w, skipping rows of weight 0.
    */
  def fitWeighted(xs: Array[Vec], ys: Vec, ws: Vec, alpha: Double): Vec = {
    require(xs.nonEmpty, "cannot fit on zero rows")
    val st = new State(xs(0).length, alpha)
    var i = 0
    while (i < xs.length) {
      val s = math.sqrt(math.max(ws(i), 0.0))
      if (s > 0.0) st.add(xs(i), ys(i), s)
      i += 1
    }
    st.solve()
  }

  /** Apply a fitted model to a feature vector: φ₀ + Σ φ_{j+1}·x_j. */
  def predict(phi: Vec, x: Vec): Double = {
    var s = phi(0); var j = 0
    while (j < x.length) { s += phi(j + 1) * x(j); j += 1 }
    s
  }
}
