package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import LinAlg._

class LinAlgSpec extends AnyFunSuite {

  private def approx(a: Double, b: Double, eps: Double = 1e-9): Boolean = math.abs(a - b) <= eps

  /** The product A·B, to check results against. */
  private def mul(a: Mat, b: Mat): Mat =
    Array.tabulate(a.length, b(0).length)((i, j) => b.indices.map(k => a(i)(k) * b(k)(j)).sum)

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
    val a = Array(Array(2.0, 1.0), Array(1.0, 3.0))
    val x = solve(a, Array(5.0, 10.0))
    assert(approx(x(0), 1.0) && approx(x(1), 3.0))
  }

  test("solve handles a permutation-needed pivot") {
    val a = Array(Array(0.0, 1.0), Array(1.0, 0.0))
    val x = solve(a, Array(2.0, 3.0))
    assert(approx(x(0), 3.0) && approx(x(1), 2.0))
  }

  test("solve rejects a singular matrix") {
    val a = Array(Array(1.0, 2.0), Array(2.0, 4.0))
    assertThrows[IllegalArgumentException](solve(a, Array(1.0, 1.0)))
  }

  test("solve does not mutate its inputs") {
    val a = Array(Array(2.0, 1.0), Array(1.0, 3.0))
    val b = Array(5.0, 10.0)
    solve(a, b)
    assert(a(0)(0) == 2.0 && b(0) == 5.0)
  }

  test("solve(A, A·x) recovers x across random SPD systems") {
    for (seed <- 1 to 30) {
      val n = 1 + seed % 5
      val a = spd(n, seed)
      val rnd = new scala.util.Random(seed + 1000)
      val x = Array.fill(n)(rnd.nextDouble() * 4 - 2)
      val got = solve(a, a.map(dot(_, x)))
      assert(x.indices.forall(i => approx(got(i), x(i), 1e-7)), s"seed=$seed")
    }
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
