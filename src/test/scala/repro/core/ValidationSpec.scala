package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.LinAlg.Vec

/** Algorithm 3's validation restated per tuple: the reverse neighbour lists
  * and the pull-style costs must reproduce the push-style loop bit for bit.
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

  test("adaptiveFor equals IIM.adaptive tuple by tuple") {
    for ((data, p, ls, lists) <- cases) {
      val staged = IIM.adaptive(data, fi, ti, p)
      val rev = IIM.reverseLists(lists, p.kv)
      for (i <- data.indices) {
        val one = IIM.adaptiveFor(data, fi, ti, lists(i), rev(i), ls, p.alpha)
        assert(one.sameElements(staged(i)), s"n=${data.length} i=$i")
      }
    }
  }

  test("selectModel returns the chosen candidate by reference") {
    val models = Array(Array(1.0), Array(2.0), Array(3.0))
    assert(IIM.selectModel(models, Array(5.0, 0.5, 2.0)) eq models(1))
    assert(IIM.selectModel(models, Array(0.0, 0.0, 0.0)) eq models(2))
  }
}
