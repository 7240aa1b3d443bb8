package repro.baselines

import repro.core.{IIM, Imputer, Neighbors, Ridge}
import repro.linalg.LinAlg
import scala.util.Random

/** Attribute-model baselines of Table II: GLR, LOESS, BLR, ERACER, PMM. */

/** Global linear (ridge) regression from F to the target (Formulas 3–4). */
final class GlrImputer(alpha: Double = 1e-3) extends Imputer {
  override val name = "GLR"
  override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                         queries: Array[Array[Double]], seed: Long): Array[Double] = {
    val phi = GlrImputer.fit(complete, featIdx, targetIdx, alpha)
    queries.map(q => Ridge.predict(phi, q))
  }
}

object GlrImputer {
  def fit(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int, alpha: Double): Array[Double] =
    Ridge.fit(complete.map(r => Neighbors.project(r, featIdx)), complete.map(_(targetIdx)), alpha)
}

/** Local regression (Cleveland & Loader): tricube-weighted ridge over the k
  * nearest neighbours of the query, learned online per incomplete tuple.
  */
final class LoessImputer(span: Int = 30, alpha: Double = 1e-3) extends Imputer {
  override val name = "LOESS"
  override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                         queries: Array[Array[Double]], seed: Long): Array[Double] = {
    val k = math.min(math.max(span, 2 * featIdx.length + 2), complete.length)
    val index = Neighbors.Index(complete, featIdx)
    queries.map { q =>
      val nn = index.nearest(q, k)
      val d = nn.map(i => Neighbors.distance(complete(i), featIdx, q))
      val dMax = math.max(d.last, 1e-12)
      val w = d.map { di => val t = math.min(di / dMax, 1.0); math.pow(1.0 - t * t * t, 3) }
      // Guard: if every weight vanishes (all neighbours at dMax), fall back to uniform.
      val ws = if (w.forall(_ <= 1e-12)) Array.fill(w.length)(1.0) else w
      val xs = nn.map(i => Neighbors.project(complete(i), featIdx))
      val ys = nn.map(i => complete(i)(targetIdx))
      Ridge.predict(Ridge.fitWeighted(xs, ys, ws, alpha), q)
    }
  }
}

/** Bayesian linear regression à la mice.norm: fit ridge, draw φ* from the
  * posterior N(φ, σ²(XᵀX+αI)⁻¹) and add observation noise to the prediction.
  */
final class BlrImputer(alpha: Double = 1e-3) extends Imputer {
  override val name = "BLR"
  override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                         queries: Array[Array[Double]], seed: Long): Array[Double] = {
    val rnd = new Random(seed)
    val xs = complete.map(r => Neighbors.project(r, featIdx))
    val ys = complete.map(_(targetIdx))
    val st = new Ridge.State(featIdx.length, alpha)
    xs.indices.foreach(i => st.add(xs(i), ys(i)))
    val phi = st.solve()
    val n = xs.length; val p = featIdx.length + 1
    val rss = xs.indices.map { i => val e = ys(i) - Ridge.predict(phi, xs(i)); e * e }.sum
    val sigma2 = math.max(rss / math.max(n - p, 1), 1e-12)
    // Posterior covariance σ²(XᵀX+αI)⁻¹, one solved column at a time.
    val cov = LinAlg.zeros(p, p)
    val colSol = new Array[Double](p)
    (0 until p).foreach { j =>
      val e = new Array[Double](p); e(j) = 1.0
      st.solveInto(e, colSol)
      (0 until p).foreach(i => cov(i)(j) = sigma2 * colSol(i))
    }
    // Symmetrise tiny asymmetries before the Cholesky.
    (0 until p).foreach(i => (0 until p).foreach { j =>
      val s = (cov(i)(j) + cov(j)(i)) / 2.0; cov(i)(j) = s; cov(j)(i) = s
    })
    (0 until p).foreach(i => cov(i)(i) += 1e-12)
    val l = LinAlg.cholesky(cov)
    queries.map { q =>
      val z = Array.fill(p)(rnd.nextGaussian())
      val draw = Array.tabulate(p)(i => phi(i) + LinAlg.dot(l(i), z))
      Ridge.predict(draw, q) + math.sqrt(sigma2) * rnd.nextGaussian()
    }
  }
}

/** ERACER (Mayfield et al.): regression on both the tuple's own complete
  * attributes and its neighbours' aggregated attributes. The training set is
  * complete, so ERACER's relaxation loop would re-fit the same φ and repeat
  * the same predictions: one pass is its fixpoint.
  */
final class EracerImputer(k: Int = 5, alpha: Double = 1e-3) extends Imputer {
  override val name = "ERACER"
  override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                         queries: Array[Array[Double]], seed: Long): Array[Double] = {
    val m = complete(0).length
    val index = Neighbors.Index(complete, featIdx)
    // Training features: own F values + mean of the k neighbours' full tuples.
    def extend(q: Array[Double], exclude: Int): Array[Double] = {
      val nn = index.nearest(q, k, exclude)
      val agg = new Array[Double](m)
      nn.foreach { i => var a = 0; while (a < m) { agg(a) += complete(i)(a) / nn.length; a += 1 } }
      q ++ agg
    }
    val xs = complete.indices.map { i =>
      extend(Neighbors.project(complete(i), featIdx), i)
    }.toArray
    val ys = complete.map(_(targetIdx))
    val phi = Ridge.fit(xs, ys, alpha)
    queries.map(q => Ridge.predict(phi, extend(q, -1)))
  }
}

/** Predictive mean matching (Landerman et al. / mice.pmm): regress, then
  * return the observed value of a random donor among the `donors` complete
  * tuples whose fitted values are closest to the query's prediction, ties
  * going to the lower row index.
  */
final class PmmImputer(donors: Int = 5, alpha: Double = 1e-3) extends Imputer {
  override val name = "PMM"
  override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                         queries: Array[Array[Double]], seed: Long): Array[Double] = {
    IIM.requireQueries(queries, featIdx.length)
    val rnd = new Random(seed)
    val phi = GlrImputer.fit(complete, featIdx, targetIdx, alpha)
    // Formula 1 over one attribute is sqrt(fl(d²)), which equals |d| exactly
    // while 2⁻⁵⁰⁰ < |d| < 2⁵⁰⁰, so the index orders donors by (|f − ŷ|, index).
    val fitted = Neighbors.Index(complete.map(r => Array(Ridge.predict(phi, Neighbors.project(r, featIdx)))), Array(0))
    queries.map { q =>
      val pool = fitted.nearest(Array(Ridge.predict(phi, q)), donors)
      complete(pool(rnd.nextInt(pool.length)))(targetIdx)
    }
  }
}
