package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Ridge
import LinAlg._

class LinAlgSpec extends AnyFunSuite {

  private def approx(a: Double, b: Double, eps: Double = 1e-9): Boolean = math.abs(a - b) <= eps

  /** The product A·B, to check results against. */
  private def mul(a: Mat, b: Mat): Mat =
    Array.tabulate(a.length, b(0).length)((i, j) => b.indices.map(k => a(i)(k) * b(k)(j)).sum)

  /** Reference: the elimination as it was written over row references,
    * before the flat in-place one, kept to pin its bits.
    */
  private def solveByRows(a0: Mat, b0: Vec): Vec = {
    val n = a0.length
    val a = copy(a0); val b = b0.clone()
    var col = 0
    while (col < n) {
      var piv = col; var best = math.abs(a(col)(col))
      var r = col + 1
      while (r < n) { val v = math.abs(a(r)(col)); if (v > best) { best = v; piv = r }; r += 1 }
      require(best > 1e-12, s"singular matrix at column $col")
      if (piv != col) {
        val t = a(piv); a(piv) = a(col); a(col) = t
        val tb = b(piv); b(piv) = b(col); b(col) = tb
      }
      val d = a(col)(col)
      r = col + 1
      while (r < n) {
        val f = a(r)(col) / d
        if (f != 0.0) {
          var j = col
          while (j < n) { a(r)(j) -= f * a(col)(j); j += 1 }
          b(r) -= f * b(col)
        }
        r += 1
      }
      col += 1
    }
    val x = new Array[Double](n)
    var i = n - 1
    while (i >= 0) {
      var s = b(i); var j = i + 1
      while (j < n) { s -= a(i)(j) * x(j); j += 1 }
      x(i) = s / a(i)(i)
      i -= 1
    }
    x
  }

  private def bits(x: Vec): Seq[Long] = x.toSeq.map(java.lang.Double.doubleToRawLongBits)

  /** Random n×n systems whose leading entries are zero or tiny at times, so
    * elimination has to swap rows, on scales from 1e-3 to 1e3.
    */
  private def pivotingSystems: Seq[(Mat, Vec)] = (0 until 200).map { seed =>
    val rnd = new scala.util.Random(seed)
    val n = 1 + seed % 9
    val scale = math.pow(10.0, rnd.nextInt(7) - 3)
    val a = Array.fill(n, n)((rnd.nextDouble() * 2 - 1) * scale)
    for (i <- 0 until n) a(i)(i) += n * scale // non-singular before the diagonal is pruned
    if (n > 1) {
      for (i <- 0 until n if rnd.nextInt(3) == 0) a(i)(i) = if (rnd.nextBoolean()) 0.0 else 1e-9 * scale
      a(0)(0) = 0.0 // column 0 always needs a swap
    }
    (a, Array.fill(n)(rnd.nextDouble() * 10 - 5))
  }

  /** Random SPD matrix A = BᵀB + I. */
  private def spd(n: Int, seed: Long): Mat = {
    val rnd = new scala.util.Random(seed)
    val b = Array.fill(n, n)(rnd.nextDouble() * 2 - 1)
    val a = mul(b.transpose, b)
    for (i <- 0 until n) a(i)(i) += 1.0
    a
  }

  test("zeros has requested shape and all-zero entries") {
    val a = zeros(3, 4)
    assert(a.length == 3 && a.forall(_.length == 4))
    assert(a.flatten.forall(_ == 0.0))
  }

  test("eye is the identity") {
    val e = eye(3)
    for (i <- 0 until 3; j <- 0 until 3) assert(e(i)(j) == (if (i == j) 1.0 else 0.0))
  }

  test("copy is deep") {
    val a = Array(Array(1.0, 2.0), Array(3.0, 4.0))
    val b = copy(a)
    b(0)(0) = 99.0
    assert(a(0)(0) == 1.0)
  }

  test("dot of orthogonal vectors is zero") {
    assert(dot(Array(1.0, 0.0), Array(0.0, 5.0)) == 0.0)
  }

  test("dot matches manual sum") {
    assert(dot(Array(1.0, 2.0, 3.0), Array(4.0, 5.0, 6.0)) == 32.0)
  }

  test("solve recovers a known solution") {
    val x = new Array[Double](2)
    solveInPlace(Array(2.0, 1.0, 1.0, 3.0), Array(5.0, 10.0), x)
    assert(approx(x(0), 1.0) && approx(x(1), 3.0))
  }

  test("solve handles a permutation-needed pivot") {
    val x = new Array[Double](2)
    solveInPlace(Array(0.0, 1.0, 1.0, 0.0), Array(2.0, 3.0), x)
    assert(approx(x(0), 3.0) && approx(x(1), 2.0))
  }

  test("solve rejects a singular matrix") {
    assertThrows[IllegalArgumentException](solveInPlace(Array(1.0, 2.0, 2.0, 4.0), Array(1.0, 1.0), new Array[Double](2)))
  }

  test("solve(A, A·x) recovers x across random SPD systems") {
    for (seed <- 1 to 30) {
      val n = 1 + seed % 5
      val a = spd(n, seed)
      val rnd = new scala.util.Random(seed + 1000)
      val x = Array.fill(n)(rnd.nextDouble() * 4 - 2)
      val got = new Array[Double](n)
      solveInPlace(a.flatten, a.map(dot(_, x)), got)
      assert(x.indices.forall(i => approx(got(i), x(i), 1e-7)), s"seed=$seed")
    }
  }

  test("solve equals the row-reference elimination bitwise when rows must pivot") {
    for (((a, b), seed) <- pivotingSystems.zipWithIndex) {
      val x = new Array[Double](b.length)
      solveInPlace(a.flatten, b.clone(), x)
      assert(bits(x) == bits(solveByRows(a, b)), s"seed $seed")
    }
  }

  test("Ridge.solve equals the row-reference elimination of U + αE bitwise") {
    for (((a, b), seed) <- pivotingSystems.zipWithIndex; alpha <- Seq(1e-3, 0.5)) {
      val shifted = copy(a)
      for (i <- shifted.indices) shifted(i)(i) += alpha
      assert(bits(Ridge.solve(a, b, alpha)) == bits(solveByRows(shifted, b)), s"seed $seed α=$alpha")
    }
  }

  test("solve names the singular column, as the row-reference elimination did") {
    val a = Array(Array(1.0, 2.0), Array(2.0, 4.0))
    val want = intercept[IllegalArgumentException](solveByRows(a, Array(1.0, 1.0))).getMessage
    assert(want == "requirement failed: singular matrix at column 1")
    assert(intercept[IllegalArgumentException](solveInPlace(a.flatten, Array(1.0, 1.0), new Array[Double](2))).getMessage == want)
    val st = new Ridge.State(1, 1e-20)
    st.add(Array(2.0), 1.0); st.add(Array(2.0), 3.0)
    assert(intercept[IllegalArgumentException](st.solve()).getMessage == want)
  }

  test("cholesky factors a known SPD matrix") {
    val a = Array(Array(4.0, 2.0), Array(2.0, 3.0))
    val l = cholesky(a)
    val back = mul(l, l.transpose)
    for (i <- 0 until 2; j <- 0 until 2) assert(approx(back(i)(j), a(i)(j)))
  }

  test("cholesky reconstructs random SPD matrices") {
    for (seed <- 1 to 20) {
      val a = spd(1 + seed % 5, seed)
      val l = cholesky(a)
      val back = mul(l, l.transpose)
      for (i <- a.indices; j <- a.indices) assert(approx(back(i)(j), a(i)(j), 1e-8), s"seed=$seed")
    }
  }

  test("cholesky rejects a non-positive-definite matrix") {
    assertThrows[IllegalArgumentException](cholesky(Array(Array(1.0, 2.0), Array(2.0, 1.0))))
  }

  test("symEigen diagonalises a diagonal matrix trivially") {
    val (vals, _) = symEigen(Array(Array(3.0, 0.0), Array(0.0, 1.0)))
    assert(approx(vals(0), 3.0) && approx(vals(1), 1.0))
  }

  test("symEigen finds the known eigenvalues of [[2,1],[1,2]]") {
    val (vals, vecs) = symEigen(Array(Array(2.0, 1.0), Array(1.0, 2.0)))
    assert(approx(vals(0), 3.0, 1e-8) && approx(vals(1), 1.0, 1e-8))
    // Leading eigenvector is ±(1,1)/√2.
    assert(approx(math.abs(vecs(0)(0)), 1.0 / math.sqrt(2), 1e-6))
  }

  test("symEigen satisfies A·v = λ·v with orthonormal vectors, random SPD") {
    for (seed <- 1 to 20) {
      val n = 2 + seed % 4
      val a = spd(n, seed)
      val (vals, vecs) = symEigen(a)
      for (j <- 0 until n) {
        val v = Array.tabulate(n)(i => vecs(i)(j))
        val av = a.map(dot(_, v))
        for (i <- 0 until n) assert(approx(av(i), vals(j) * v(i), 1e-6), s"seed=$seed")
        assert(approx(dot(v, v), 1.0, 1e-6))
      }
      assert(vals.zip(vals.drop(1)).forall { case (x, y) => x >= y - 1e-9 })
    }
  }

  test("symEigen preserves the trace") {
    val a = Array(Array(5.0, 1.0, 0.5), Array(1.0, 4.0, 0.2), Array(0.5, 0.2, 3.0))
    val (vals, _) = symEigen(a)
    assert(approx(vals.sum, 12.0, 1e-8))
  }
}
