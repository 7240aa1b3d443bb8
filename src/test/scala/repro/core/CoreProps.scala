package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import repro.baselines.GlrImputer

/** ScalaCheck properties for the core invariants (run by sbt's ScalaCheck
  * framework alongside the ScalaTest suites).
  */
object CoreProps extends Properties("core") {

  private val smallData: Gen[Array[Array[Double]]] = for {
    n <- Gen.choose(8, 40)
    seed <- Gen.choose(0L, 10000L)
  } yield {
    val rnd = new scala.util.Random(seed)
    Array.fill(n)(Array(rnd.nextDouble() * 10, rnd.nextDouble() * 10, rnd.nextDouble() * 10))
  }

  private val fi = Array(0, 1)
  private val ti = 2

  property("combine lies within the candidate hull") = Prop.forAll(
    Gen.nonEmptyListOf(Gen.choose(-100.0, 100.0))) { cs =>
    val arr = cs.toArray
    val got = IIM.combine(arr)
    got >= arr.min - 1e-9 && got <= arr.max + 1e-9
  }

  property("combine weights sum to one (affine invariance under shift)") = Prop.forAll(
    Gen.listOfN(4, Gen.choose(-50.0, 50.0)), Gen.choose(-10.0, 10.0)) { (cs, shift) =>
    val arr = cs.toArray
    val a = IIM.combine(arr)
    val b = IIM.combine(arr.map(_ + shift))
    math.abs((a + shift) - b) < 1e-6
  }

  property("nearest returns sorted distances") = Prop.forAll(smallData, Gen.choose(1, 8)) { (data, k) =>
    val q = Array(5.0, 5.0)
    val nn = Neighbors.nearest(data, fi, q, k)
    val ds = nn.map(i => Neighbors.distance(data(i), fi, q))
    ds.zip(ds.drop(1)).forall { case (a, b) => a <= b }
  }

  property("learnFixed(ℓ=n) gives every tuple the global model") = Prop.forAll(smallData) { data =>
    val models = IIM.learnFixed(data, fi, ti, data.length, 1e-3)
    val glr = GlrImputer.fit(data, fi, ti, 1e-3)
    models.forall(m => m.indices.forall(j => math.abs(m(j) - glr(j)) < 1e-6))
  }

  property("incremental equals from-scratch candidate models") = Prop.forAll(smallData) { data =>
    val ls = IIM.ellCandidates(data.length, 20, 2)
    val lists = IIM.neighborLists(data, fi, math.max(ls.last, 4))
    val a = IIM.candidateModels(data, fi, ti, lists, ls, 1e-3)
    val b = IIM.candidateModelsNaive(data, fi, ti, lists, ls, 1e-3)
    data.indices.forall(i => ls.indices.forall(li => a(i)(li).sameElements(b(i)(li))))
  }

  /** 0.1-grid rows drawn from a few distinct ones (exact ties, duplicates),
    * random Params with k ≥ n and kv + 1 ≥ n among them, and 0, 1 or many
    * queries on and off the rows.
    */
  private val maskedCases = for {
    n <- Gen.choose(1, 30)
    distinct <- Gen.choose(1, n)
    k <- Gen.oneOf(Gen.choose(1, n), Gen.choose(n, n + 5))
    kv <- Gen.oneOf(Gen.const(0), Gen.choose(1, n), Gen.choose(n - 1, n + 5).map(_.max(1)))
    lMax <- Gen.choose(1, 35)
    step <- Gen.choose(1, 6)
    q <- Gen.oneOf(Gen.const(0), Gen.const(1), Gen.choose(2, 25))
    seed <- Gen.choose(0L, 100000L)
  } yield {
    val rnd = new scala.util.Random(seed)
    val pool = Array.fill(distinct)(Array.fill(3)(rnd.nextInt(50) / 10.0))
    val data = Array.fill(n)(pool(rnd.nextInt(distinct)).clone())
    val queries = Array.fill(q)(if (rnd.nextBoolean()) data(rnd.nextInt(n)).take(2) else Array.fill(2)(rnd.nextInt(50) / 10.0))
    (data, IIM.Params(k = k, lMax = lMax, step = step, kv = kv), queries)
  }

  property("masked LocalImputer equals adaptive then imputeOne bitwise") = Prop.forAll(maskedCases) {
    case (data, p, queries) =>
      val index = Neighbors.Index(data, fi)
      val models = IIM.adaptive(index, ti, p)
      val eager = queries.map(IIM.imputeOne(index, models, _, p.k))
      val masked = new IIM.LocalImputer(p).imputeAll(data, fi, ti, queries, 0L)
      masked.map(java.lang.Double.doubleToRawLongBits).sameElements(eager.map(java.lang.Double.doubleToRawLongBits))
  }

  property("Ridge incremental state equals batch fit") = Prop.forAll(smallData) { data =>
    val xs = data.map(r => Array(r(0), r(1)))
    val ys = data.map(_(2))
    val st = new Ridge.State(2, 1e-3)
    xs.indices.foreach(i => st.add(xs(i), ys(i)))
    st.solve().sameElements(Ridge.fit(xs, ys, 1e-3))
  }

  property("imputeOne is reproducible") = Prop.forAll(smallData) { data =>
    val models = IIM.learnFixed(data, fi, ti, math.min(5, data.length), 1e-3)
    val q = Array(3.3, 6.6)
    IIM.imputeOne(data, models, fi, q, 3) == IIM.imputeOne(data, models, fi, q, 3)
  }
}
