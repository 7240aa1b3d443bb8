package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle
import repro.Oracle.Table

/** The live IIM engine against DuckDB SQL written from the paper's
  * definitions: the neighbour lists of Formula 1 (ties broken by row
  * index), the reverse lists Algorithm 3 validates over, and the normal
  * equations U and V that Proposition 3 accumulates.
  */
class OracleSpec extends AnyFunSuite {

  /** n rows of m attributes on the grid {0.1, 0.2, …, 0.6}: rows and
    * distances repeat exactly, and, 0.1 not being a binary fraction, sums of
    * squares that are equal on paper land a rounding apart, so only the
    * engine's exact distance expression orders them as the engine does.
    */
  private def gridData(n: Int, m: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(n, m)((1 + rnd.nextInt(6)) * 0.1)
  }

  /** (data, featIdx, target column) cases: one, two and three features, in
    * and out of column order.
    */
  private val cases = Seq(
    (gridData(60, 2, 1), Array(0), 1),
    (gridData(90, 3, 2), Array(2, 0), 1),
    (gridData(120, 4, 3), Array(1, 3, 0), 2),
  )

  private def relation(data: Array[Array[Double]]): Table = Table("rel", data(0).indices.map(a => s"a$a"), data)

  /** The forward lists as rows (j, pos, i): entry pos of tuple j's list is i. */
  private def forward(lists: Array[Array[Int]]): Table =
    Table("fwd", Seq("j", "pos", "i"), for (j <- lists.indices.toArray; pos <- lists(j).indices.toArray)
      yield Array(j, pos, lists(j)(pos)))

  /** `lists` as the (owner, entry) rows the SQL below returns. */
  private def pairs(lists: Array[Array[Int]]): Vector[Vector[Any]] =
    lists.indices.toVector.flatMap(i => lists(i).toVector.map(j => Vector[Any](i, j)))

  private def assertSameRows(got: Vector[Vector[Any]], want: Vector[Vector[Any]], what: String): Unit = {
    val at = (0 until math.max(got.length, want.length)).find(r => got.lift(r) != want.lift(r))
    at.foreach(r => fail(s"$what: engine row $r is ${got.lift(r)}, SQL row $r is ${want.lift(r)}"))
  }

  /** Formula 1 as [[Neighbors.distance]] computes it for query q and row t:
    * the squared differences summed left to right in `featIdx` order, then
    * divided by |F|, then the square root.
    */
  private def distanceSql(featIdx: Array[Int]): String = {
    val sum = featIdx.map(a => s"(q.a$a - t.a$a) * (q.a$a - t.a$a)").mkString(" + ")
    s"sqrt(($sum) / ${featIdx.length}e0)"
  }

  test("neighborLists equals the SQL window rank by (Formula 1 distance, index), tree and scan") {
    for ((data, featIdx, _) <- cases) {
      val n = data.length
      val index = Neighbors.Index(data, featIdx)
      // The k-d tree (neighborLists) and the linear scan it is tested
      // against both answer every count up to n.
      for (limit <- Seq(1, n / 4, n / 2, n / 2 + 1, n)) {
        val sql =
          s"""SELECT i, j FROM (
             |  SELECT q.id AS i, t.id AS j,
             |         row_number() OVER (PARTITION BY q.id ORDER BY ${distanceSql(featIdx)}, t.id) AS r
             |  FROM rel q CROSS JOIN rel t)
             |WHERE r <= $limit ORDER BY i, r""".stripMargin
        val want = Oracle.query(sql, relation(data))
        val scan = data.map(r => Neighbors.nearest(data, featIdx, Neighbors.project(r, featIdx), limit))
        for ((side, lists) <- Seq("tree" -> IIM.neighborLists(index, limit), "scan" -> scan))
          assertSameRows(pairs(lists), want, s"$side n=$n F=${featIdx.mkString(",")} limit=$limit")
      }
    }
  }

  test("reverseLists equals the SQL inversion of the forward lists") {
    for ((data, featIdx, _) <- cases) {
      val lists = IIM.neighborLists(Neighbors.Index(data, featIdx), 20)
      // Duplicate rows put a tuple behind lower-index copies of itself in its own list.
      assert(lists.indices.exists(j => lists(j)(0) != j))
      for (k <- Seq(1, 5, 19, 25)) {
        val sql =
          s"""SELECT i, j FROM (
             |  SELECT j, i, row_number() OVER (PARTITION BY j ORDER BY pos) AS r
             |  FROM fwd WHERE i <> j)
             |WHERE r <= $k ORDER BY i, j""".stripMargin
        assertSameRows(pairs(IIM.reverseLists(lists, k)), Oracle.query(sql, forward(lists)),
          s"n=${data.length} k=$k")
      }
    }
  }

  test("Ridge.State U and V equal the SQL sums over each list's first ℓ rows") {
    for ((data, featIdx, targetIdx) <- cases) {
      val lists = IIM.neighborLists(Neighbors.Index(data, featIdx), 30)
      val aug = "1e0" +: featIdx.map(a => s"t.a$a").toSeq
      val d = aug.length
      val sums = (for (a <- 0 until d; b <- 0 until d) yield s"SUM(${aug(a)} * ${aug(b)})") ++
        (0 until d).map(a => s"SUM(${aug(a)} * t.a$targetIdx)")
      for (ell <- Seq(1, 2, 7, 30)) {
        val sql =
          s"""SELECT l.j, ${sums.mkString(", ")}
             |FROM fwd l JOIN rel t ON t.id = l.i
             |WHERE l.pos < $ell GROUP BY l.j ORDER BY l.j""".stripMargin
        val rows = Oracle.query(sql, forward(lists), relation(data))
        assert(rows.map(_(0)) == data.indices.toVector)
        for (j <- data.indices) {
          val st = new Ridge.State(featIdx.length, 1e-3)
          lists(j).take(ell).foreach(i => st.add(Neighbors.project(data(i), featIdx), data(i)(targetIdx)))
          val engine = (for (a <- 0 until d; b <- 0 until d) yield st.u(a, b)) ++ st.v
          // SQL sums in another order; every term is positive, so rounding stays relative.
          for ((want, c) <- engine.zipWithIndex) {
            val got = rows(j)(c + 1).asInstanceOf[Double]
            assert(math.abs(got - want) <= 1e-12 * want, s"ℓ=$ell tuple $j sum $c: SQL $got, engine $want")
          }
        }
      }
    }
  }
}
