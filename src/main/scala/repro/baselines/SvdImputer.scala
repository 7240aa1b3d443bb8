package repro.baselines

import repro.core.{Imputer, Ridge}
import repro.linalg.LinAlg

/** SVDimpute (Troyanskaya et al.): project onto the top-`rank` eigenvectors
  * ("eigengenes") of the complete data's covariance using the observed
  * attributes, then reconstruct the missing one.
  *
  * With m ≤ ~20 attributes the right singular vectors are the eigenvectors of
  * the m×m covariance, obtained by the Jacobi sweep in [[LinAlg.symEigen]].
  */
final class SvdImputer(rank: Int = 0, ridge: Double = 1e-6) extends Imputer {
  override val name = "SVD"

  override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                         queries: Array[Array[Double]], seed: Long): Array[Double] = {
    val m = complete(0).length
    val n = complete.length
    val mu = new Array[Double](m)
    complete.foreach { r => var a = 0; while (a < m) { mu(a) += r(a) / n; a += 1 } }
    val cov = LinAlg.zeros(m, m)
    complete.foreach { r =>
      var a = 0
      while (a < m) {
        var b = 0
        while (b < m) { cov(a)(b) += (r(a) - mu(a)) * (r(b) - mu(b)) / n; b += 1 }
        a += 1
      }
    }
    val (_, vecs) = LinAlg.symEigen(cov)
    val kk = math.max(1, if (rank <= 0) math.max(1, featIdx.length / 2) else math.min(rank, m))
    // P: m×kk top eigenvectors; P_F its rows at the observed attributes.
    val pF = featIdx.map(a => Array.tabulate(kk)(j => vecs(a)(j)))
    val pT = Array.tabulate(kk)(j => vecs(targetIdx)(j))
    // coords = (P_Fᵀ P_F + εI)⁻¹ P_Fᵀ (q − μ_F), then impute μ_t + P_t·coords.
    val g = LinAlg.zeros(kk, kk)
    for (row <- pF; i <- 0 until kk; j <- 0 until kk) g(i)(j) += row(i) * row(j)
    queries.map { q =>
      val b = new Array[Double](kk)
      var a = 0
      while (a < featIdx.length) {
        val centered = q(a) - mu(featIdx(a))
        var j = 0
        while (j < kk) { b(j) += pF(a)(j) * centered; j += 1 }
        a += 1
      }
      val coords = Ridge.solve(g, b, ridge)
      mu(targetIdx) + LinAlg.dot(pT, coords)
    }
  }
}
