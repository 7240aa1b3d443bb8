package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{GlrImputer, KnnImputer}
import repro.linalg.LinAlg.Vec

/** Tests IIM against the paper's own worked examples (Figure 1, Examples
  * 2/3/6) and Propositions 1–3.
  *
  * Figure 1 reconstruction: t1..t4 are given implicitly by Example 6
  * ((0,5.8), (0.8,4.6), (1.9,3.8), (2.9,3.2)); t5..t8 lie on the second
  * street's line A2 = 1.11·A1 − 4.36 (φ5 = φ6 = φ8 = (−4.36, 1.11) in
  * Examples 2/3) at A1 = 5.8, 6.5, 7.3, 8.0 — positions chosen so that every
  * neighbour set printed in the paper holds: NN(t_x,3) = {t5,t4,t6},
  * NN(t1,4) = {t1..t4}, NN(t4,4) = {t4,t3,t2,t1}, NN(t5,4) = {t5,t6,t7,t8}.
  */
class IIMSpec extends AnyFunSuite {

  private def line2(x: Double): Double = 1.11 * x - 4.36
  private val fig1: Array[Array[Double]] = Array(
    Array(0.0, 5.8), Array(0.8, 4.6), Array(1.9, 3.8), Array(2.9, 3.2),
    Array(5.8, line2(5.8)), Array(6.5, line2(6.5)), Array(7.3, line2(7.3)), Array(8.0, line2(8.0)),
  )
  private val featIdx = Array(0)
  private val targetIdx = 1
  private val eps = 1e-6 // α≈0 reproduces the paper's OLS-like printed values

  private def approx(a: Double, b: Double, tol: Double): Boolean = math.abs(a - b) <= tol

  test("Example 2: individual learning with ℓ=4 gives φ1 = (5.56, -0.87)") {
    val models = IIM.learnFixed(fig1, featIdx, targetIdx, ell = 4, alpha = eps)
    assert(approx(models(0)(0), 5.56, 0.01) && approx(models(0)(1), -0.87, 0.01))
  }

  test("Example 2: φ2 equals φ1 (same learning neighbours) and φ8 = (-4.36, 1.11)") {
    val models = IIM.learnFixed(fig1, featIdx, targetIdx, ell = 4, alpha = eps)
    assert(approx(models(1)(0), 5.56, 0.01) && approx(models(1)(1), -0.87, 0.01))
    assert(approx(models(7)(0), -4.36, 0.01) && approx(models(7)(1), 1.11, 0.01))
  }

  test("Example 3: candidates of t_x's neighbours t5, t6 are 1.19") {
    val models = IIM.learnFixed(fig1, featIdx, targetIdx, ell = 4, alpha = eps)
    val qF = Array(5.0)
    assert(approx(Ridge.predict(models(4), qF), 1.19, 0.01))
    assert(approx(Ridge.predict(models(5), qF), 1.19, 0.01))
  }

  test("Example 3: imputation neighbours of t_x=(5,·) with k=3 are {t5, t6, t4}") {
    val nn = Neighbors.nearest(fig1, featIdx, Array(5.0), 3)
    assert(nn.toSet == Set(4, 5, 3))
    assert(nn(0) == 4) // t5 is closest (|5−5.8| = 0.8)
  }

  test("Example 3: aggregated imputation ≈ 1.194 (paper, 2-decimal rounding)") {
    val models = IIM.learnFixed(fig1, featIdx, targetIdx, ell = 4, alpha = eps)
    val got = IIM.imputeOne(fig1, models, featIdx, Array(5.0), k = 3)
    // Full-precision φ4 gives 1.1976; the paper's 1.194 comes from rounding φ to 2 decimals.
    assert(approx(got, 1.194, 0.01), s"got $got")
  }

  test("Figure 1: IIM beats kNN beats GLR on t_x (truth 1.8)") {
    val truth = 1.8
    val models = IIM.learnFixed(fig1, featIdx, targetIdx, ell = 4, alpha = eps)
    val iim = IIM.imputeOne(fig1, models, featIdx, Array(5.0), k = 3)
    val knn = new KnnImputer(3).imputeAll(fig1, featIdx, targetIdx, Array(Array(5.0)), 0L)(0)
    val glr = new GlrImputer(eps).imputeAll(fig1, featIdx, targetIdx, Array(Array(5.0)), 0L)(0)
    assert(math.abs(iim - truth) < math.abs(knn - truth))
    assert(math.abs(knn - truth) < math.abs(glr - truth))
  }

  test("ℓ=1 produces the constant single-neighbour model (§III-A2)") {
    val models = IIM.learnFixed(fig1, featIdx, targetIdx, ell = 1, alpha = eps)
    fig1.indices.foreach { i =>
      assert(models(i)(0) == fig1(i)(targetIdx) && models(i)(1) == 0.0)
    }
  }

  test("an empty complete relation: queries are an error naming it, no query no values, adaptive no models") {
    val empty = Array.empty[Array[Double]]
    val imputer = new IIM.LocalImputer(IIM.Params())
    val e = intercept[IllegalArgumentException](imputer.imputeAll(empty, Array(0), 1, Array(Array(1.0)), 0L))
    assert(e.getMessage.contains("complete relation is empty"), e.getMessage)
    assert(imputer.imputeAll(empty, Array(0), 1, Array.empty, 0L).isEmpty)
    assert(IIM.adaptive(empty, Array(0), 1, IIM.Params()).isEmpty)
  }

  private def randomData(n: Int, m: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n)(Array.fill(m)(rnd.nextDouble() * 10))
  }

  test("Proposition 1: ℓ=1 with uniform weights reduces to kNN imputation") {
    val data = randomData(60, 3, 11)
    val fi = Array(0, 1); val ti = 2
    val models = IIM.learnFixed(data, fi, ti, ell = 1, alpha = 1e-3)
    val rnd = new scala.util.Random(12)
    for (_ <- 1 to 10) {
      val q = Array(rnd.nextDouble() * 10, rnd.nextDouble() * 10)
      val k = 1 + rnd.nextInt(6)
      val nn = Neighbors.nearest(data, fi, q, k)
      val uniform = nn.map(i => Ridge.predict(models(i), q)).sum / nn.length
      val knn = new KnnImputer(k).imputeAll(data, fi, ti, Array(q), 0L)(0)
      assert(math.abs(uniform - knn) < 1e-12)
    }
  }

  test("Proposition 2: ℓ=n reduces to GLR imputation") {
    val data = randomData(50, 3, 21)
    val fi = Array(0, 1); val ti = 2
    val models = IIM.learnFixed(data, fi, ti, ell = data.length, alpha = 1e-3)
    val glrPhi = GlrImputer.fit(data, fi, ti, 1e-3)
    val rnd = new scala.util.Random(22)
    for (_ <- 1 to 10) {
      val q = Array(rnd.nextDouble() * 10, rnd.nextDouble() * 10)
      val iim = IIM.imputeOne(data, models, fi, q, k = 4)
      val glr = Ridge.predict(glrPhi, q)
      assert(math.abs(iim - glr) < 1e-9)
    }
  }

  test("Proposition 3: incremental candidate models equal from-scratch bitwise") {
    val data = randomData(80, 4, 31)
    val fi = Array(0, 1, 2); val ti = 3
    val ls = IIM.ellCandidates(data.length, lMax = 40, step = 3)
    val lists = IIM.neighborLists(data, fi, math.max(ls.last, 6))
    val inc = IIM.candidateModels(data, fi, ti, lists, ls, 1e-3)
    val scratch = IIM.candidateModelsNaive(data, fi, ti, lists, ls, 1e-3)
    for (i <- data.indices; li <- ls.indices)
      assert(inc(i)(li).sameElements(scratch(i)(li)), s"i=$i li=$li")
  }

  /** Algorithm 3 as written, the reference for [[IIM.adaptive]]: candidate
    * models learnt from scratch for every ℓ, then the same validation and
    * selection.
    */
  private def adaptiveNaive(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                            p: IIM.Params): Array[Vec] = {
    val ls = IIM.ellCandidates(data.length, p.lMax, p.step)
    val lists = IIM.neighborLists(data, featIdx, IIM.listLength(data.length, ls, p))
    val models = IIM.candidateModelsNaive(data, featIdx, targetIdx, lists, ls, p.alpha)
    IIM.selectModels(models, IIM.validationCosts(data, featIdx, targetIdx, lists, models, ls, p.kvEff))
  }

  test("adaptive equals adaptiveNaive (identical models selected)") {
    val data = randomData(70, 3, 41)
    val fi = Array(0, 1); val ti = 2
    val p = IIM.Params(k = 4, lMax = 30, step = 2)
    val a = IIM.adaptive(data, fi, ti, p)
    val b = adaptiveNaive(data, fi, ti, p)
    for (i <- data.indices) assert(a(i).sameElements(b(i)), s"i=$i")
  }

  private def rejected(p: => IIM.Params): String = intercept[IllegalArgumentException](p).getMessage

  test("Params rejects k < 1, naming k") {
    assert(rejected(IIM.Params(k = 0)).contains("IIM.Params: k must be >= 1, got 0"))
    assert(rejected(IIM.Params(k = -3)).contains("got -3"))
  }

  test("Params rejects lMax < 1, naming lMax") {
    assert(rejected(IIM.Params(lMax = 0)).contains("IIM.Params: lMax must be >= 1, got 0"))
    assert(rejected(IIM.Params(lMax = -5)).contains("got -5"))
    assert(intercept[IllegalArgumentException](IIM.ellCandidates(10, 0, 1)).getMessage.contains("lMax"))
  }

  test("Params rejects step < 1, naming step") {
    assert(rejected(IIM.Params(step = 0)).contains("IIM.Params: step must be >= 1, got 0"))
  }

  test("Params rejects kv < 0, naming kv; kv = 0 selects the default") {
    assert(rejected(IIM.Params(kv = -1)).contains("IIM.Params: kv must be >= 0"))
    assert(IIM.Params(k = 4, kv = 0).kvEff == 15 && IIM.Params(k = 6).kvEff == 18)
  }

  test("Params rejects an alpha that is not finite and positive, naming alpha") {
    for (a <- Seq(0.0, -1e-3, Double.NaN, Double.PositiveInfinity))
      assert(rejected(IIM.Params(alpha = a)).contains("IIM.Params: alpha must be finite and > 0"), s"alpha=$a")
    assert(IIM.Params(alpha = Double.MinPositiveValue).alpha > 0.0)
  }

  test("ellCandidates covers 1..n with step 1") {
    assert(IIM.ellCandidates(5, 10, 1).sameElements(Array(1, 2, 3, 4, 5)))
  }

  test("ellCandidates respects stepping (Example 5: h=3 over n=8 gives {1,4,7})") {
    assert(IIM.ellCandidates(8, 8, 3).sameElements(Array(1, 4, 7)))
  }

  test("ellCandidates caps at lMax") {
    assert(IIM.ellCandidates(1000, 10, 4).sameElements(Array(1, 5, 9)))
  }

  test("ellCandidates rejects step < 1") {
    assertThrows[IllegalArgumentException](IIM.ellCandidates(10, 10, 0))
  }

  test("combine of a single candidate returns it") {
    assert(IIM.combine(Array(3.3)) == 3.3)
  }

  test("combine of identical candidates returns the value") {
    assert(IIM.combine(Array(2.0, 2.0, 2.0)) == 2.0)
  }

  test("combine reproduces Example 3's mutual-vote weights (2/5, 1/5, 2/5)") {
    // Candidates 1.19, 1.21, 1.19 → c = (0.02, 0.04, 0.02) → weights (0.4, 0.2, 0.4).
    val got = IIM.combine(Array(1.19, 1.21, 1.19))
    assert(approx(got, 1.19 * 0.8 + 1.21 * 0.2, 1e-9))
  }

  test("combine down-weights an outlying candidate (Figure 3 intuition)") {
    val cands = Array(1.0, 1.02, 9.0)
    val got = IIM.combine(cands)
    val uniform = cands.sum / cands.length
    assert(got < uniform, s"outlier should weigh less than under uniform mean $uniform, got $got")
    assert(got > 1.0, "result stays within the candidate hull")
  }

  test("combine is permutation invariant") {
    val a = IIM.combine(Array(1.0, 2.0, 4.0))
    val b = IIM.combine(Array(4.0, 1.0, 2.0))
    assert(approx(a, b, 1e-12))
  }

  test("selectModels picks the argmin-cost candidate") {
    val models = Array(Array(Array(1.0), Array(2.0), Array(3.0)))
    val cost = Array(Array(5.0, 0.5, 2.0))
    assert(IIM.selectModels(models, cost)(0).sameElements(Array(2.0)))
  }

  test("selectModels falls back to the largest ℓ for never-validated tuples") {
    val models = Array(Array(Array(1.0), Array(2.0), Array(3.0)))
    val cost = Array(Array(0.0, 0.0, 0.0))
    assert(IIM.selectModels(models, cost)(0).sameElements(Array(3.0)))
  }

  test("reverseLists over (kv + 1)-prefixes equals reverseLists over full lists") {
    // Rows 0–5 are one point, so row 5 sits behind five lower-index copies
    // in its own list; the rest are on a 0.1 grid, with more exact ties.
    val rnd = new scala.util.Random(53)
    val data = Array.fill(6)(Array(1.0, 1.0)) ++ Array.fill(40)(Array(rnd.nextInt(20) / 10.0, rnd.nextInt(20) / 10.0))
    val index = Neighbors.Index(data, Array(0, 1))
    val full = IIM.neighborLists(index, data.length)
    assert(full(5).indexOf(5) == 5)
    for (kv <- Seq(1, 2, 4, 7, 20, data.length - 1, data.length + 3)) {
      val short = IIM.neighborLists(index, math.min(kv + 1, data.length))
      for (i <- data.indices) assert(short(i).sameElements(full(i).take(kv + 1)), s"kv=$kv list $i is not a prefix")
      val want = IIM.reverseLists(full, kv)
      val got = IIM.reverseLists(short, kv)
      for (i <- data.indices) assert(got(i).sameElements(want(i)), s"kv=$kv rev($i)")
    }
  }

  test("neighborLists puts each tuple first in its own list") {
    val data = randomData(30, 2, 51)
    val lists = IIM.neighborLists(data, Array(0), 5)
    data.indices.foreach(i => assert(lists(i)(0) == i))
  }

  test("adaptive IIM beats kNN and GLR on heterogeneous two-street data") {
    // Two clusters with different regressions, queries from both.
    val rnd = new scala.util.Random(61)
    val data = Array.tabulate(200) { i =>
      val x = rnd.nextDouble() * 4 + (if (i % 2 == 0) 0.0 else 8.0)
      val y = if (i % 2 == 0) 5.0 - 0.9 * x else 1.1 * x - 4.3
      Array(x, y + rnd.nextGaussian() * 0.02)
    }
    val fi = Array(0); val ti = 1
    val queries = Array.tabulate(20) { j =>
      val x = rnd.nextDouble() * 4 + (if (j % 2 == 0) 0.0 else 8.0)
      (Array(x), if (j % 2 == 0) 5.0 - 0.9 * x else 1.1 * x - 4.3)
    }
    def rmsOf(vals: Array[Double]): Double =
      math.sqrt(queries.map(_._2).zip(vals).map { case (t, v) => (t - v) * (t - v) }.sum / vals.length)
    val iimModels = IIM.adaptive(data, fi, ti, IIM.Params(k = 5, lMax = 60, step = 2))
    val iim = rmsOf(queries.map(q => IIM.imputeOne(data, iimModels, fi, q._1, 5)))
    val knn = rmsOf(new KnnImputer(5).imputeAll(data, fi, ti, queries.map(_._1), 0L))
    val glr = rmsOf(new GlrImputer().imputeAll(data, fi, ti, queries.map(_._1), 0L))
    assert(iim < knn, s"iim=$iim knn=$knn")
    assert(iim < glr, s"iim=$iim glr=$glr")
  }
}
