package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.data.{Generators, Missing}
import repro.tables.Methods

class NeighborsSpec extends AnyFunSuite {

  private val data = Array(
    Array(0.0, 10.0),
    Array(1.0, 20.0),
    Array(2.0, 30.0),
    Array(5.0, 40.0),
    Array(9.0, 50.0),
  )
  private val featIdx = Array(0)

  test("distance implements Formula 1 (normalised Euclidean)") {
    val d = Neighbors.distance(Array(3.0, 4.0), Array(0, 1), Array(0.0, 0.0))
    assert(math.abs(d - math.sqrt(25.0 / 2.0)) < 1e-12)
  }

  test("distance over a single attribute is |difference|") {
    assert(Neighbors.distance(Array(7.0, 99.0), featIdx, Array(3.0)) == 4.0)
  }

  test("nearest returns ascending-distance order") {
    val nn = Neighbors.nearest(data, featIdx, Array(1.9), 3)
    assert(nn.sameElements(Array(2, 1, 0)))
  }

  test("nearest includes an exact match first") {
    val nn = Neighbors.nearest(data, featIdx, Array(5.0), 2)
    assert(nn(0) == 3)
  }

  test("nearest with count >= n returns all rows") {
    val nn = Neighbors.nearest(data, featIdx, Array(0.0), 10)
    assert(nn.length == 5 && nn.toSet == Set(0, 1, 2, 3, 4))
  }

  test("nearest excludes the requested row") {
    val nn = Neighbors.nearest(data, featIdx, Array(0.0), 5, exclude = 0)
    assert(nn.length == 4 && !nn.contains(0))
  }

  test("nearest breaks distance ties by row index") {
    val tied = Array(Array(1.0), Array(3.0), Array(3.0), Array(5.0))
    val nn = Neighbors.nearest(tied, Array(0), Array(4.0), 3)
    // Rows 1 and 2 (at 3.0) and row 3 (at 5.0) all lie at distance 1 from
    // the query 4.0; row 0 lies at 3. The tie is broken by row index.
    assert(nn.sameElements(Array(1, 2, 3)))
  }

  test("nearest matches brute force on random data") {
    val rnd = new scala.util.Random(99)
    for (trial <- 1 to 20) {
      val n = 30 + rnd.nextInt(40)
      val d = Array.fill(n)(Array(rnd.nextDouble() * 10, rnd.nextDouble() * 10, rnd.nextDouble() * 10))
      val fi = Array(0, 2)
      val q = Array(rnd.nextDouble() * 10, rnd.nextDouble() * 10)
      val k = 1 + rnd.nextInt(10)
      val got = Neighbors.nearest(d, fi, q, k)
      val want = d.indices
        .sortBy(i => (Neighbors.distance(d(i), fi, q), i))
        .take(k)
      assert(got.sameElements(want), s"trial=$trial")
    }
  }

  test("nearest with empty result when excluding the only row") {
    val nn = Neighbors.nearest(Array(Array(1.0)), Array(0), Array(1.0), 3, exclude = 0)
    assert(nn.isEmpty)
  }

  test("project extracts feature order") {
    assert(Neighbors.project(Array(10.0, 20.0, 30.0), Array(2, 0)).sameElements(Array(30.0, 10.0)))
  }

  test("nearest is deterministic across calls") {
    val q = Array(2.2)
    val a = Neighbors.nearest(data, featIdx, q, 4)
    val b = Neighbors.nearest(data, featIdx, q, 4)
    assert(a.sameElements(b))
  }

  /** A relation of `n` rows of width f + 1, its feature indices (a shuffled
    * choice of f columns) and a projected query. `shape` 0 draws continuous
    * values, 1 draws from {0, 1, 2, 3} (many exact ties), 2 mirrors pairs of
    * points around the query on a 0.5 grid (equal distances from both
    * sides). `distinct` < n repeats rows exactly; `constant` pins the first
    * feature to one value.
    */
  private val indexCases = for {
    f <- Gen.oneOf(1, 2, 4, 8, 12)
    n <- Gen.frequency(1 -> Gen.choose(1, 2), 4 -> Gen.choose(3, 300))
    distinct <- Gen.oneOf(Gen.const(n), Gen.choose(1, n))
    shape <- Gen.choose(0, 2)
    constant <- Gen.oneOf(false, true)
    count <- Gen.choose(1, n + 3)
    exclude <- Gen.oneOf(Gen.const(-1), Gen.choose(0, n - 1))
    seed <- Gen.choose(0L, 100000L)
  } yield {
    val rnd = new scala.util.Random(seed)
    val featIdx = rnd.shuffle((0 to f).toList).take(f).toArray
    val q = Array.fill(f)(if (shape == 0) rnd.nextDouble() * 10 else rnd.nextInt(4).toDouble)
    val pool = Array.fill(distinct) {
      val row = Array.fill(f + 1)(if (shape == 1) rnd.nextInt(4).toDouble else rnd.nextDouble() * 10)
      if (shape == 2) featIdx.indices.foreach(a => row(featIdx(a)) = q(a) + rnd.nextInt(9) * 0.5 - 2.0)
      row
    }
    // Each odd row of the pool mirrors the row before it around q.
    if (shape == 2) for (r <- 1 until distinct by 2; a <- featIdx.indices)
      pool(r)(featIdx(a)) = 2 * q(a) - pool(r - 1)(featIdx(a))
    val data = Array.fill(n)(pool(rnd.nextInt(distinct)).clone())
    if (constant) data.foreach(_(featIdx(0)) = 1.5)
    (data, featIdx, q, count, exclude)
  }

  test("Index.nearest equals the linear scan bit for bit") {
    val prop = Prop.forAllNoShrink(indexCases) { case (data, featIdx, q, count, exclude) =>
      val index = Neighbors.Index(data, featIdx)
      val want = Neighbors.nearest(data, featIdx, q, count, exclude)
      val got = index.nearest(q, count, exclude)
      val lists = IIM.neighborLists(index, count)
      got.sameElements(want) && data.indices.forall(i =>
        lists(i).sameElements(Neighbors.nearest(data, featIdx, Neighbors.project(data(i), featIdx), count)))
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300).withWorkers(1), prop)
    assert(result.passed, result.status)
  }

  test("Index.nearest and neighborLists equal the scan above n/2 rows, with exact ties") {
    // n = 257 rows, so the tree has several levels; features on a 0.5 grid,
    // 81 distinct points, so many distances tie exactly.
    val rnd = new scala.util.Random(5)
    val n = 257
    val data = Array.fill(n)(Array.fill(3)(rnd.nextInt(9) * 0.5))
    val featIdx = Array(2, 0)
    val index = Neighbors.Index(data, featIdx)
    val queries = data.map(Neighbors.project(_, featIdx)) ++ Array(Array(1.25, 2.0), Array(-1.0, 5.0))
    for (count <- Seq(n / 2 + 1, n - 1, n, n + 3)) {
      for (exclude <- Seq(-1, 0, n / 2, n - 1); (q, qi) <- queries.zipWithIndex)
        assert(index.nearest(q, count, exclude).sameElements(Neighbors.nearest(data, featIdx, q, count, exclude)),
          s"count $count exclude $exclude query $qi")
      val lists = IIM.neighborLists(index, count)
      for (i <- data.indices)
        assert(lists(i).sameElements(Neighbors.nearest(data, featIdx, queries(i), count)), s"count $count tuple $i")
    }
  }

  test("neighborLists on SN at Table V size equals the per-tuple scan") {
    // The complete relation and IIM parameters of the Table V SN row.
    val sn = Missing.inject(Generators.byName("SN", 42).rows, frac = 0.05, seed = 43).complete
    val p = Methods.iimParams("SN")
    val limit = IIM.listLength(sn.length, IIM.ellCandidates(sn.length, p.lMax, p.step), p)
    for (attr <- 0 until 2) {
      val featIdx = Array(1 - attr)
      val lists = IIM.neighborLists(sn, featIdx, limit)
      for (i <- sn.indices) {
        val want = Neighbors.nearest(sn, featIdx, Neighbors.project(sn(i), featIdx), limit)
        assert(lists(i).sameElements(want), s"attribute $attr, tuple $i")
      }
    }
  }

  test("Index rejects a non-finite feature in the relation, naming row and column") {
    val data = Array(Array(1.0, 2.0, 3.0), Array(4.0, Double.NaN, 6.0), Array(7.0, 8.0, Double.PositiveInfinity))
    val e = intercept[IllegalArgumentException](Neighbors.Index(data, Array(0, 1)))
    assert(e.getMessage.contains("row 1 column 1"), e.getMessage)
    // A non-finite value outside F is not the index's concern.
    Neighbors.Index(data.take(1) :+ data(2), Array(0, 1))
  }

  test("Index rejects a non-finite query feature, naming its position") {
    val index = Neighbors.Index(data, Array(0, 1))
    val e = intercept[IllegalArgumentException](index.nearest(Array(1.0, Double.NegativeInfinity), 2))
    assert(e.getMessage.contains("query feature 1"), e.getMessage)
  }
}
