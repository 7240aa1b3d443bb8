package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.LinAlg.Vec

/** Algorithm 3's validation restated per tuple: the reverse neighbour lists
  * and the pull-style costs must reproduce the push-style loop bit for bit,
  * and the streamed per-tuple kernel [[IIM.adaptiveFor]] must reproduce the
  * staged candidateModels → validationCosts → selectModels pipeline.
  */
class ValidationSpec extends AnyFunSuite {

  /** The push-style loop: each validation tuple j adds its squared errors to
    * the cost rows of its k imputation neighbours other than itself.
    */
  private def pushCosts(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                        lists: Array[Array[Int]], models: Array[Array[Vec]],
                        ls: Array[Int], k: Int): Array[Array[Double]] = {
    val cost = Array.fill(data.length)(new Array[Double](ls.length))
    for (j <- data.indices) {
      val xF = Neighbors.project(data(j), featIdx)
      val v = data(j)(targetIdx)
      for (i <- lists(j).iterator.filter(_ != j).take(k); li <- ls.indices) {
        val d = v - Ridge.predict(models(i)(li), xF)
        cost(i)(li) += d * d
      }
    }
    cost
  }

  /** n rows drawn with replacement from `distinct` random rows, so most
    * cases hold duplicate tuples (equal distances, ties broken by index).
    */
  private def dupData(n: Int, distinct: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new scala.util.Random(seed)
    val pool = Array.fill(distinct)(Array.fill(3)(rnd.nextDouble() * 10))
    Array.fill(n)(pool(rnd.nextInt(distinct)).clone())
  }

  private val fi = Array(0, 1)
  private val ti = 2

  private val cases = for (seed <- 0L until 12L) yield {
    val rnd = new scala.util.Random(seed)
    val n = 2 + rnd.nextInt(60)
    val data = dupData(n, 1 + rnd.nextInt(n), seed)
    val p = IIM.Params(lMax = 1 + rnd.nextInt(30), step = 1 + rnd.nextInt(4), kv = 1 + rnd.nextInt(25))
    val ls = IIM.ellCandidates(n, p.lMax, p.step)
    (data, p, ls, IIM.neighborLists(data, fi, math.max(ls.last, p.kv + 1)))
  }

  test("validationCosts equals the push-style loop bitwise, duplicate rows included") {
    for ((data, p, ls, lists) <- cases) {
      val models = IIM.candidateModels(data, fi, ti, lists, ls, p.alpha)
      val got = IIM.validationCosts(data, fi, ti, lists, models, ls, p.kv)
      val want = pushCosts(data, fi, ti, lists, models, ls, p.kv)
      for (i <- data.indices)
        assert(got(i).sameElements(want(i)), s"n=${data.length} kv=${p.kv} i=$i")
    }
  }

  test("reverseLists is ascending and holds exactly the pairs the forward lists imply") {
    for ((data, p, _, lists) <- cases) {
      val kv = p.kv
      val rev = IIM.reverseLists(lists, kv)
      assert(rev.length == data.length)
      rev.foreach(r => assert(r.toSeq == r.toSeq.sorted.distinct, s"not ascending: ${r.toSeq}"))
      val forward = for (j <- data.indices; i <- lists(j).iterator.filter(_ != j).take(kv)) yield (i, j)
      val backward = for (i <- data.indices; j <- rev(i)) yield (i, j)
      assert(backward.sorted == forward.sorted, s"n=${data.length} kv=$kv")
    }
  }

  test("reverseLists skips a tuple's own entry wherever it sits in its list") {
    // Rows 0 and 1 are duplicates, so row 1's list starts with 0, then 1.
    val lists = Array(Array(0, 1, 2), Array(0, 1, 2), Array(2, 1, 0))
    val rev = IIM.reverseLists(lists, 1)
    assert(rev.map(_.toSeq).toSeq == Seq(Seq(1), Seq(0, 2), Seq()))
  }

  private def bits(x: Vec): Seq[Long] = x.toSeq.map(java.lang.Double.doubleToRawLongBits)

  /** Algorithm 3 stage by stage, as perfbench's trace and Table III run it:
    * the candidate ℓs, lists, reverse lists and chosen models.
    */
  private def staged(data: Array[Array[Double]], p: IIM.Params) = {
    val ls = IIM.ellCandidates(data.length, p.lMax, p.step)
    val lists = IIM.neighborLists(data, fi, IIM.listLength(data.length, ls, p))
    val models = IIM.candidateModels(data, fi, ti, lists, ls, p.alpha)
    val chosen = IIM.selectModels(models, IIM.validationCosts(data, fi, ti, lists, models, ls, p.kvEff))
    (ls, lists, IIM.reverseLists(lists, p.kvEff), chosen)
  }

  private def assertKernelMatchesStaged(data: Array[Array[Double]], p: IIM.Params): Unit = {
    val (ls, lists, rev, chosen) = staged(data, p)
    val adaptive = IIM.adaptive(data, fi, ti, p)
    for (i <- data.indices) {
      val one = IIM.adaptiveFor(data, fi, ti, lists(i), rev(i), ls, p.alpha)
      assert(bits(one) == bits(chosen(i)), s"n=${data.length} $p i=$i")
      assert(bits(adaptive(i)) == bits(chosen(i)), s"n=${data.length} $p i=$i (adaptive)")
    }
  }

  test("adaptiveFor equals staged Algorithm 3 bitwise, random Params") {
    val gen = for {
      n <- Gen.choose(1, 60)
      distinct <- Gen.choose(1, n)
      k <- Gen.choose(1, 10)
      alpha <- Gen.oneOf(1e-6, 1e-3, 0.5)
      lMax <- Gen.choose(1, 40)
      step <- Gen.choose(1, 5)
      kv <- Gen.choose(0, 30)
      seed <- Gen.choose(0L, 100000L)
    } yield (dupData(n, distinct, seed), IIM.Params(k, alpha, lMax, step, kv))
    val prop = Prop.forAllNoShrink(gen) { case (data, p) => assertKernelMatchesStaged(data, p); true }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(40).withWorkers(1), prop)
    assert(result.passed, result.status)
  }

  test("adaptiveFor without validators, on short lists and at n = 1 equals the staged selection") {
    // Row 4 lies far from the cluster, so with kv = 1 it is no row's nearest
    // other row and nothing validates its models: every cost is 0 and it
    // falls back to its largest-ℓ model, the only candidate the kernel solves.
    val data = Array(Array(0.0, 0.0, 1.0), Array(0.1, 0.0, 2.0), Array(0.0, 0.1, 3.0),
      Array(0.1, 0.1, 4.0), Array(9.0, 9.0, 5.0))
    val p = IIM.Params(lMax = 5, kv = 1)
    val (ls, lists, rev, chosen) = staged(data, p)
    assert(rev(4).isEmpty && ls.length == 5)
    val largest = IIM.candidateModelsFor(data, fi, ti, lists(4), ls, p.alpha).last
    assert(bits(IIM.adaptiveFor(data, fi, ti, lists(4), rev(4), ls, p.alpha)) == bits(largest))
    assert(bits(chosen(4)) == bits(largest))
    assertKernelMatchesStaged(data, p)

    // Lists shorter than the largest ℓ: the candidates past the list's end
    // repeat its last model.
    for (i <- data.indices; len <- 1 to 3) {
      val short = lists(i).take(len)
      val models = IIM.candidateModelsFor(data, fi, ti, short, ls, p.alpha)
      val want = IIM.selectModel(models, IIM.costsFor(data, fi, ti, rev(i), models))
      assert(bits(IIM.adaptiveFor(data, fi, ti, short, rev(i), ls, p.alpha)) == bits(want), s"i=$i len=$len")
    }

    // n = 1: one candidate, ℓ = 1, no validators: the constant model.
    val one = Array(Array(1.0, 2.0, 3.0))
    assert(bits(IIM.adaptive(one, fi, ti, IIM.Params())(0)) == bits(Array(3.0, 0.0, 0.0)))
    assertKernelMatchesStaged(one, IIM.Params(kv = 4))
  }

  test("adaptiveFor keeps the smallest ℓ on a tie and the largest when every cost is 0") {
    // Targets of -0.0 make exact ties between models with different bits:
    // the ℓ = 1 model of a -0.0 target is (-0.0, 0, 0), a ridge model over
    // zero targets has +0.0 entries, and both predict every zero target with
    // error 0. With kv = 1 row 0 is validated by row 1 only, and its ℓ = 3
    // candidate, fitted over row 2's target 5, costs more than 0.
    val tie = Array(Array(0.0, 0.0, -0.0), Array(1.0, 0.0, -0.0), Array(3.0, 0.0, 5.0))
    val allZero = tie.map(_.updated(ti, -0.0))
    for ((data, want) <- Seq(tie -> 0, allZero -> 2)) {
      val p = IIM.Params(lMax = 3, kv = 1)
      assertKernelMatchesStaged(data, p)
      val (_, lists, rev, chosen) = staged(data, p)
      val models = IIM.candidateModelsFor(data, fi, ti, lists(0), Array(1, 2, 3), p.alpha)
      assert(rev(0).toSeq == Seq(1) && bits(models(0)) != bits(models(1)))
      assert(bits(chosen(0)) == bits(models(want)))
    }
    assertKernelMatchesStaged(tie, IIM.Params(lMax = 3, kv = 2))
  }

  test("selectModel returns the chosen candidate by reference") {
    val models = Array(Array(1.0), Array(2.0), Array(3.0))
    assert(IIM.selectModel(models, Array(5.0, 0.5, 2.0)) eq models(1))
    assert(IIM.selectModel(models, Array(0.0, 0.0, 0.0)) eq models(2))
  }
}
