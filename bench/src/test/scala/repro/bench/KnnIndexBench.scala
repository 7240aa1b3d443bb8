package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{IIM, Neighbors}
import repro.data.{Generators, Missing}
import repro.tables.Methods

/** The kNN layer on its own: the linear scan ([[Neighbors.nearest]]) against
  * the exact index ([[Neighbors.Index]]) on the three shapes of the IIM
  * benchmark workloads, with outputs asserted equal. Each shape is timed
  * `reps` times per side after one untimed warm-up; the index side includes
  * building the index.
  *
  *  - SN lists: all-pairs neighbour lists of the Table V SN row (|F| = 1,
  *    c = 56 of about 19,000 tuples), one attribute;
  *  - CCPP lookups: Algorithm 2's k = 5 lookups of 25,000 queries on 3,000
  *    CCPP tuples (|F| = 4);
  *  - CA lists: the all-pairs lists of the ℓ ≤ 400 sweep on 1,900 CA tuples
  *    (|F| = 8), and the same lists at c = n/2, where the two cost about
  *    the same.
  */
class KnnIndexBench extends AnyFunSuite {

  private val reps = 3

  private def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val out = body
    (out, (System.nanoTime() - t0) / 1e9)
  }

  private def compare(shape: String, scan: () => Array[Array[Int]], indexed: () => Array[Array[Int]]): Unit = {
    val want = scan(); val got = indexed()
    assert(want.length == got.length && want.indices.forall(i => want(i).sameElements(got(i))), shape)
    val scanS = (1 to reps).map(_ => time(scan())._2)
    val indexS = (1 to reps).map(_ => time(indexed())._2)
    println(f"$shape%-14s scan ${scanS.map(s => f"$s%.3f").mkString(" ")} s | index ${indexS.map(s => f"$s%.3f").mkString(" ")} s")
  }

  private def lists(data: Array[Array[Double]], featIdx: Array[Int], limit: Int): Unit =
    compare(s"lists c=$limit n=${data.length} |F|=${featIdx.length}",
      () => data.map(r => Neighbors.nearest(data, featIdx, Neighbors.project(r, featIdx), limit)),
      () => IIM.neighborLists(data, featIdx, limit))

  test("SN lists: the index equals the scan") {
    val complete = Missing.inject(Generators.byName("SN", 42).rows, frac = 0.05, seed = 43).complete
    val p = Methods.iimParams("SN")
    lists(complete, Array(1), IIM.listLength(complete.length, IIM.ellCandidates(complete.length, p.lMax, p.step), p))
  }

  test("CCPP lookups: the index equals the scan") {
    val problem = Missing.inject(Generators.byName("CCPP", 42, 7.0).rows, frac = 0.0, seed = 43, attr = 4, count = 25000)
    val featIdx = Array(0, 1, 2, 3)
    val queries = problem.queries.map(qr => featIdx.map(qr.row))
    val complete = problem.complete
    compare(s"lookups k=5 q=${queries.length} n=${complete.length} |F|=4",
      () => queries.map(q => Neighbors.nearest(complete, featIdx, q, 5)),
      () => { val index = Neighbors.Index(complete, featIdx); queries.map(q => index.nearest(q, 5)) })
  }

  test("CA lists: the index equals the scan") {
    val complete = Missing.inject(Generators.byName("CA", 42, 1.0 / 3.0).rows, frac = 0.05, seed = 43, attr = 8).complete
    lists(complete, Array.range(0, 8), IIM.listLength(complete.length, IIM.ellCandidates(complete.length, 400, 1),
      IIM.Params(lMax = 400, kv = 20)))
    lists(complete, Array.range(0, 8), complete.length / 2)
  }
}
