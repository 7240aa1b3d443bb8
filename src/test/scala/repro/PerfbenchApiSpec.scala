package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{IIM, Neighbors}
import repro.data.{Generators, Missing}
import repro.linalg.LinAlg.Vec
import repro.ml.Metrics
import repro.spark.SparkIIM
import repro.tables.Methods

/** Every call `perfbench/src` makes into the program, bound with the
  * parameter and result types the benchmark uses, named arguments included.
  * The benchmark is built on its own, so a change that removes or reshapes
  * one of these calls fails `Test/compile` here instead of only breaking the
  * benchmark's build. The test runs the calls in the benchmark's order on a
  * small SN workload.
  */
class PerfbenchApiSpec extends SparkSpec {

  private type Rel = Array[Array[Double]]

  private val generate: (String, Long, Double) => Generators.Dataset = Generators.byName(_, _, _)
  private val rows: Generators.Dataset => Rel = _.rows
  private val inject: (Rel, Double, Long) => Missing.Problem =
    (rows, frac, seed) => Missing.inject(rows, frac = frac, seed = seed)
  private val injectInto: (Rel, Double, Long, Int, Int) => Missing.Problem =
    (rows, frac, seed, attr, count) => Missing.inject(rows, frac = frac, seed = seed, attr = attr, count = count)
  private val problem: Missing.Problem => (Rel, Map[Int, Array[Missing.Query]]) = pr => (pr.complete, pr.byAttr)
  private val query: Missing.Query => (Array[Double], Double) = qr => (qr.row, qr.truth)
  private val iimParams: String => IIM.Params = Methods.iimParams
  private val params: (Int, Int, Int, Int) => IIM.Params =
    (k, lMax, step, kv) => IIM.Params(k = k, lMax = lMax, step = step, kv = kv)
  private val fields: IIM.Params => (Int, Double, Int, Int, Int) = p => (p.k, p.alpha, p.lMax, p.step, p.kvEff)
  private val ellCandidates: (Int, Int, Int) => Array[Int] = IIM.ellCandidates
  private val neighborLists: (Rel, Array[Int], Int) => Array[Array[Int]] = IIM.neighborLists(_, _, _)
  private val candidateModels: (Rel, Array[Int], Int, Array[Array[Int]], Array[Int], Double) => Array[Array[Vec]] =
    IIM.candidateModels
  private val validationCosts
      : (Rel, Array[Int], Int, Array[Array[Int]], Array[Array[Vec]], Array[Int], Int) => Array[Array[Double]] =
    IIM.validationCosts
  private val selectModels: (Array[Array[Vec]], Array[Array[Double]]) => Array[Vec] = IIM.selectModels
  private val imputeOne: (Rel, Array[Vec], Array[Int], Array[Double], Int) => Double = IIM.imputeOne(_, _, _, _, _)
  private val nearest: (Rel, Array[Int], Array[Double], Int) => Array[Int] = Neighbors.nearest(_, _, _, _)
  private val localImputer: IIM.Params => IIM.LocalImputer = new IIM.LocalImputer(_)
  private val localImputeAll: (IIM.LocalImputer, Rel, Array[Int], Int, Rel, Long) => Array[Double] =
    _.imputeAll(_, _, _, _, _)
  private val sparkImputer: (SparkSession, IIM.Params) => SparkIIM.SparkImputer = new SparkIIM.SparkImputer(_, _)
  private val sparkImputeAll: (SparkIIM.SparkImputer, Rel, Array[Int], Int, Rel, Long) => Array[Double] =
    _.imputeAll(_, _, _, _, _)
  private val adaptiveModels: (SparkSession, Rel, Array[Int], Int, IIM.Params) => Array[Vec] = SparkIIM.adaptiveModels
  private val impute: (SparkSession, DataFrame, Seq[String], String, Rel, Array[Int], Array[Vec], Int) => DataFrame =
    SparkIIM.impute
  private val rms: (Array[Double], Array[Double]) => Double = Metrics.rms

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  test("perfbench's calls run in its order and agree bit for bit") {
    import spark.implicits._
    val p = iimParams("SN")
    val (k, alpha, lMax, step, kv) = fields(p)
    val (complete, byAttr) = problem(inject(rows(generate("SN", 42L, 0.02)), 0.1, 43L))
    val n = complete.length
    for ((attr, qs) <- byAttr.toSeq.sortBy(_._1)) {
      val featIdx = complete(0).indices.filter(_ != attr).toArray
      val queries = qs.map(qr => featIdx.map(query(qr)._1))
      val ls = ellCandidates(n, lMax, step)
      val lists = neighborLists(complete, featIdx, math.max(ls.last, kv + 1))
      val models = candidateModels(complete, featIdx, attr, lists, ls, alpha)
      val chosen = selectModels(models, validationCosts(complete, featIdx, attr, lists, models, ls, kv))
      // perfbench recovers each tuple's ℓ* by matching the chosen model by reference.
      assert(chosen.indices.forall(i => models(i).exists(_ eq chosen(i))), s"attribute $attr")
      val staged = queries.map(imputeOne(complete, chosen, featIdx, _, k))
      assert(queries.forall(nearest(complete, featIdx, _, k).length == k))
      val local = localImputeAll(localImputer(p), complete, featIdx, attr, queries, 44L)
      val viaSpark = sparkImputeAll(sparkImputer(spark, p), complete, featIdx, attr, queries, 44L)
      val qDf = queries.toSeq.zipWithIndex.map { case (q, id) => (id, q(0), Double.NaN) }.toDF("id", "f0", "y")
      val udfOut = new Array[Double](queries.length)
      impute(spark, qDf, Seq("f0"), "y", complete, featIdx, adaptiveModels(spark, complete, featIdx, attr, p), k)
        .select("id", "y").collect().foreach(r => udfOut(r.getInt(0)) = r.getDouble(1))
      for (out <- Seq(local, viaSpark, udfOut)) assert(bits(out) == bits(staged), s"attribute $attr")
      assert(!rms(qs.map(query(_)._2), staged).isNaN)
    }
    val sweep = params(5, 400, 1, 20)
    assert(fields(sweep) == ((5, 1e-3, 400, 1, 20)))
    val served = problem(injectInto(rows(generate("CCPP", 42L, 0.1)), 0.0, 43L, 4, 20))._2
    assert(served.keySet == Set(4) && served(4).length == 20)
  }
}
