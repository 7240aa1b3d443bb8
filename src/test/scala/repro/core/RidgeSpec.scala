package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.LinAlg
import repro.linalg.LinAlg.{Mat, Vec}

class RidgeSpec extends AnyFunSuite {

  private def approx(a: Double, b: Double, eps: Double = 1e-6): Boolean = math.abs(a - b) <= eps

  /** Reference: the unscaled row update `State.add` made before it took a
    * row scale, folded into a plain U and V, kept to pin its bits.
    */
  private def addUnscaled(u: Mat, v: Vec, x: Array[Double], y: Double): Unit = {
    val f = x.length
    u(0)(0) += 1.0
    v(0) += y
    var i = 0
    while (i < f) {
      val xi = x(i)
      u(0)(i + 1) += xi
      u(i + 1)(0) += xi
      v(i + 1) += xi * y
      var j = 0
      while (j < f) { u(i + 1)(j + 1) += xi * x(j); j += 1 }
      i += 1
    }
  }

  /** Reference: the weighted fit as written before it went through
    * `State.add` — rows scaled by √w, folded into U/V by hand.
    */
  private def fitWeightedByHand(xs: Array[Array[Double]], ys: Array[Double], ws: Array[Double],
                                alpha: Double): Array[Double] = {
    val f = xs(0).length
    val u = LinAlg.zeros(f + 1, f + 1); val v = new Array[Double](f + 1)
    var i = 0
    while (i < xs.length) {
      val s = math.sqrt(math.max(ws(i), 0.0))
      if (s > 0.0) {
        val x = xs(i)
        u(0)(0) += s * s
        v(0) += s * s * ys(i)
        var a = 0
        while (a < f) {
          val xa = s * x(a); val one = s
          u(0)(a + 1) += one * xa
          u(a + 1)(0) += one * xa
          v(a + 1) += xa * (s * ys(i))
          var b = 0
          while (b < f) { u(a + 1)(b + 1) += xa * (s * x(b)); b += 1 }
          a += 1
        }
      }
      i += 1
    }
    Ridge.solve(u, v, alpha)
  }

  /** Random rows with 1–4 features on mixed scales. */
  private def randomRows(rnd: scala.util.Random): (Array[Array[Double]], Array[Double]) = {
    val f = 1 + rnd.nextInt(4)
    val n = f + 2 + rnd.nextInt(30)
    val xs = Array.fill(n)(Array.fill(f)(rnd.nextGaussian() * math.pow(10, rnd.nextInt(5) - 2)))
    (xs, xs.map(x => x.sum + rnd.nextGaussian()))
  }

  test("fit recovers an exact linear relation (α→0)") {
    // y = 2 + 3x over 5 points.
    val xs = Array(0.0, 1.0, 2.0, 3.0, 4.0).map(Array(_))
    val ys = xs.map(x => 2.0 + 3.0 * x(0))
    val phi = Ridge.fit(xs, ys, 1e-9)
    assert(approx(phi(0), 2.0) && approx(phi(1), 3.0))
  }

  test("fit recovers a multivariate linear relation") {
    val rnd = new scala.util.Random(7)
    val xs = Array.fill(50)(Array(rnd.nextDouble() * 4, rnd.nextDouble() * 4, rnd.nextDouble() * 4))
    val ys = xs.map(x => 1.5 - 2.0 * x(0) + 0.5 * x(1) + 3.0 * x(2))
    val phi = Ridge.fit(xs, ys, 1e-9)
    assert(approx(phi(0), 1.5, 1e-5) && approx(phi(1), -2.0, 1e-5) &&
      approx(phi(2), 0.5, 1e-5) && approx(phi(3), 3.0, 1e-5))
  }

  test("large α shrinks coefficients toward zero") {
    val xs = Array(0.0, 1.0, 2.0, 3.0).map(Array(_))
    val ys = xs.map(x => 10.0 * x(0))
    val small = Ridge.fit(xs, ys, 1e-9)(1)
    val big = Ridge.fit(xs, ys, 100.0)(1)
    assert(math.abs(big) < math.abs(small))
  }

  test("predict applies intercept plus weights") {
    assert(Ridge.predict(Array(1.0, 2.0, -1.0), Array(3.0, 4.0)) == 1.0 + 6.0 - 4.0)
  }

  test("incremental State equals batch fit bitwise") {
    val rnd = new scala.util.Random(13)
    val xs = Array.fill(40)(Array(rnd.nextDouble(), rnd.nextDouble()))
    val ys = xs.map(x => 2.0 * x(0) - x(1) + rnd.nextGaussian() * 0.1)
    val st = new Ridge.State(2, 1e-3)
    xs.indices.foreach(i => st.add(xs(i), ys(i)))
    val inc = st.solve()
    val batch = Ridge.fit(xs, ys, 1e-3)
    assert(inc.sameElements(batch))
  }

  test("State accumulates XᵀX and XᵀY exactly (paper Example 6, U/V at ℓ=3)") {
    // t1..t3 of Figure 1: x = 0, 0.8, 1.9; y = 5.8, 4.6, 3.8.
    val st = new Ridge.State(1, 1e-6)
    st.add(Array(0.0), 5.8); st.add(Array(0.8), 4.6); st.add(Array(1.9), 3.8)
    assert(approx(st.u(0, 0), 3.0) && approx(st.u(0, 1), 2.7) &&
      approx(st.u(1, 0), 2.7) && approx(st.u(1, 1), 4.25))
    assert(approx(st.v(0), 14.2) && approx(st.v(1), 10.9))
    val phi3 = st.solve()
    assert(approx(phi3(0), 5.66, 0.01) && approx(phi3(1), -1.03, 0.01))
  }

  test("paper Example 6: incrementally adding t4 yields φ^(4) = (5.56, -0.87)") {
    val st = new Ridge.State(1, 1e-6)
    st.add(Array(0.0), 5.8); st.add(Array(0.8), 4.6); st.add(Array(1.9), 3.8)
    st.add(Array(2.9), 3.2) // the increment X^(3,1) = (1, 2.9), Y^(3,1) = (3.2)
    val phi4 = st.solve()
    assert(approx(phi4(0), 5.56, 0.01) && approx(phi4(1), -0.87, 0.01))
  }

  test("State rejects wrong feature arity") {
    val st = new Ridge.State(2, 1e-3)
    assertThrows[IllegalArgumentException](st.add(Array(1.0), 2.0))
  }

  test("fit rejects empty input") {
    assertThrows[IllegalArgumentException](Ridge.fit(Array.empty[Array[Double]], Array.empty[Double], 1e-3))
  }

  test("α regularisation makes an underdetermined system solvable") {
    // 1 observation, 2 features: XᵀX is singular; ridge still solves.
    val phi = Ridge.fit(Array(Array(1.0, 2.0)), Array(3.0), 1e-2)
    assert(phi.length == 3 && phi.forall(v => !v.isNaN && !v.isInfinite))
  }

  test("fitWeighted with uniform weights equals unweighted fit") {
    val rnd = new scala.util.Random(5)
    val xs = Array.fill(20)(Array(rnd.nextDouble() * 3))
    val ys = xs.map(x => 4.0 - x(0) + rnd.nextGaussian() * 0.05)
    val w = Array.fill(20)(1.0)
    val a = Ridge.fit(xs, ys, 1e-3)
    val b = Ridge.fitWeighted(xs, ys, w, 1e-3)
    assert(a.sameElements(b))
  }

  test("State.add without a scale accumulates U and V bitwise as the unscaled update") {
    for (seed <- 0 until 50) {
      val rnd = new scala.util.Random(seed)
      val (xs, ys) = randomRows(rnd)
      val f = xs(0).length
      val st = new Ridge.State(f, 1e-3)
      val u = LinAlg.zeros(f + 1, f + 1); val v = new Array[Double](f + 1)
      xs.indices.foreach { i => st.add(xs(i), ys(i)); addUnscaled(u, v, xs(i), ys(i)) }
      assert(u.indices.forall(r => u(r).indices.forall(c => st.u(r, c) == u(r)(c))), s"U differs at seed $seed")
      assert(st.v.sameElements(v), s"V differs at seed $seed")
    }
  }

  test("fitWeighted equals the hand-folded weighted accumulation bitwise, zero weights included") {
    for (seed <- 0 until 50) {
      val rnd = new scala.util.Random(seed)
      val (xs, ys) = randomRows(rnd)
      val ws = xs.map(_ => if (rnd.nextInt(4) == 0) 0.0 else rnd.nextDouble() * 3)
      ws(0) = 1.0 // keep at least one row
      val phi = Ridge.fitWeighted(xs, ys, ws, 1e-3)
      assert(phi.sameElements(fitWeightedByHand(xs, ys, ws, 1e-3)), s"seed $seed")
    }
  }

  test("fitWeighted zero-weight rows are ignored") {
    val xs = Array(Array(0.0), Array(1.0), Array(2.0), Array(100.0))
    val ys = Array(1.0, 2.0, 3.0, -500.0) // outlier with weight 0
    val w = Array(1.0, 1.0, 1.0, 0.0)
    val phi = Ridge.fitWeighted(xs, ys, w, 1e-9)
    assert(approx(phi(0), 1.0, 1e-5) && approx(phi(1), 1.0, 1e-5))
  }

  test("fitWeighted down-weights rows smoothly") {
    val xs = Array(Array(0.0), Array(1.0), Array(2.0), Array(3.0))
    val ys = Array(0.0, 1.0, 2.0, 30.0)
    val full = Ridge.fitWeighted(xs, ys, Array(1.0, 1.0, 1.0, 1.0), 1e-6)(1)
    val damped = Ridge.fitWeighted(xs, ys, Array(1.0, 1.0, 1.0, 0.01), 1e-6)(1)
    assert(damped < full) // outlier pulls slope up less when down-weighted
  }
}
