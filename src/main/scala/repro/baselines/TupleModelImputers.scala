package repro.baselines

import repro.core.{Imputer, Neighbors, Ridge}

/** Tuple-model baselines of Table II: Mean, kNN, kNNE, ILLS. */

/** Global column mean (Farhangfar et al.). */
final class MeanImputer extends Imputer {
  override val name = "Mean"
  override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                         queries: Array[Array[Double]], seed: Long): Array[Double] = {
    val mean = complete.map(_(targetIdx)).sum / complete.length
    Array.fill(queries.length)(mean)
  }
}

/** Arithmetic mean of the k nearest neighbours' target values (Formula 2). */
final class KnnImputer(k: Int = 5) extends Imputer {
  override val name = "kNN"
  override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                         queries: Array[Array[Double]], seed: Long): Array[Double] = {
    val index = Neighbors.Index(complete, featIdx)
    queries.map { q =>
      val nn = index.nearest(q, k)
      nn.map(i => complete(i)(targetIdx)).sum / nn.length
    }
  }
}

/** kNN ensemble (Domeniconi & Yan): one kNN vote per leave-one-attribute-out
  * feature subset, results averaged.
  */
final class KnnEImputer(k: Int = 5) extends Imputer {
  override val name = "kNNE"
  override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                         queries: Array[Array[Double]], seed: Long): Array[Double] = {
    val subsets: Array[Array[Int]] =
      if (featIdx.length <= 1) Array(Array.range(0, featIdx.length))
      else featIdx.indices.map(drop => featIdx.indices.filter(_ != drop).toArray).toArray
    val indexes = subsets.map(sub => Neighbors.Index(complete, sub.map(featIdx)))
    queries.map { q =>
      val votes = Array.tabulate(subsets.length) { s =>
        val nn = indexes(s).nearest(subsets(s).map(q), k)
        nn.map(i => complete(i)(targetIdx)).sum / nn.length
      }
      votes.sum / votes.length
    }
  }
}

/** Iterated local least squares (Cai et al.): regress the target on F over
  * the k nearest neighbours, then refine the neighbourhood with the current
  * estimate folded into the distance (iterated).
  */
final class IllsImputer(k: Int = 10, iters: Int = 3, alpha: Double = 1e-3) extends Imputer {
  override val name = "ILLS"
  override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                         queries: Array[Array[Double]], seed: Long): Array[Double] = {
    val byF = Neighbors.Index(complete, featIdx)
    val byAll = Neighbors.Index(complete, featIdx :+ targetIdx)
    queries.map { q =>
      val kk = math.min(math.max(k, featIdx.length + 2), complete.length)
      var nn = byF.nearest(q, kk)
      var est = nn.map(i => complete(i)(targetIdx)).sum / nn.length
      var it = 0
      while (it < iters) {
        val xs = nn.map(i => Neighbors.project(complete(i), featIdx))
        val ys = nn.map(i => complete(i)(targetIdx))
        val phi = Ridge.fit(xs, ys, alpha)
        est = Ridge.predict(phi, q)
        // Re-select neighbours using the estimate on the full attribute set.
        nn = byAll.nearest(q :+ est, kk)
        it += 1
      }
      est
    }
  }
}
