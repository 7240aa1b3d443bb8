package repro.core

import repro.linalg.LinAlg.Vec

/** Imputation via Individual Models — the paper's contribution.
  *
  * Learning (Algorithm 1) fits one ridge model per complete tuple over its ℓ
  * nearest learning neighbours; adaptive learning (Algorithm 3) selects a
  * per-tuple ℓ* by validating candidate models against the complete tuples
  * they would impute, using the incremental normal-equation update of
  * Proposition 3; imputation (Algorithm 2) aggregates the k imputation
  * neighbours' model predictions with the mutual-vote weights of
  * Formulas 10–12.
  *
  * Algorithm 3 has one kernel, [[adaptiveFor]], run per tuple by both the
  * local [[adaptive]] and the Spark path. The staged calls
  * ([[candidateModels]], [[validationCosts]], [[selectModels]]) compute the
  * same models a layer at a time, for Table III and for tracing.
  *
  * Imputing a batch ([[LocalImputer]], `SparkIIM.imputeValues`) learns only
  * the models Algorithm 2 reads: those of the tuples among some query's k
  * nearest ([[imputeMasked]]). No other model enters a vote, so it is never
  * learnt, and no output bit changes: a tuple's model depends only on its
  * own full neighbour list and its reverse list, [[reverseLists]] reads only
  * the first kv + 1 entries of each list, and a shorter list is an exact
  * prefix of a longer one (ties go by row index). So every other tuple
  * needs only its (kv + 1)-list, and the reverse lists built from those are
  * the ones the full lists give.
  */
object IIM {

  /** @param k     number of imputation neighbours (Algorithm 2)
    * @param alpha ridge regularisation α of Formula 5
    * @param lMax  cap on the learning-neighbour sweep of Algorithm 3; the
    *              paper sweeps ℓ to n, which is O(n³) — lMax bounds it for
    *              tractability (Fig. 11 shows optimal ℓ ≪ n)
    * @param step  stepping h of §V-A2: candidate ℓ ∈ {1, 1+h, 1+2h, …}
    * @param kv    validation-neighbour count of Algorithm 3 line 4. The paper
    *              uses k there; with noisy data each tuple then collects only
    *              ~k cost samples and the argmin over many ℓ candidates
    *              overfits validation noise. A wider validation neighbourhood
    *              (default max(15, 3k), selected by kv = 0) smooths
    *              cost[i][ℓ] without changing the imputation phase —
    *              documented deviation (DESIGN.md §5).
    *
    * Bad values are rejected here, naming the field: k ≥ 1, lMax ≥ 1,
    * step ≥ 1, kv ≥ 0 and α finite and > 0 (α = 0 leaves every candidate
    * with ℓ ≤ |F| rank-deficient).
    */
  final case class Params(k: Int = 5, alpha: Double = 1e-3, lMax: Int = 100, step: Int = 1,
                          kv: Int = 0) {
    require(k >= 1, s"IIM.Params: k must be >= 1, got $k")
    require(lMax >= 1, s"IIM.Params: lMax must be >= 1, got $lMax")
    require(step >= 1, s"IIM.Params: step must be >= 1, got $step")
    require(kv >= 0, s"IIM.Params: kv must be >= 0 (0 selects the default), got $kv")
    require(alpha > 0.0 && alpha < Double.PositiveInfinity, s"IIM.Params: alpha must be finite and > 0, got $alpha")

    /** Effective validation-neighbour count. */
    def kvEff: Int = if (kv > 0) kv else math.max(15, 3 * k)
  }

  /** Candidate ℓ values {1, 1+h, …} capped at min(n, lMax); non-empty for n ≥ 1. */
  def ellCandidates(n: Int, lMax: Int, step: Int): Array[Int] = {
    require(step >= 1, "stepping h must be >= 1")
    require(lMax >= 1, s"lMax must be >= 1, got $lMax")
    Iterator.iterate(1)(_ + step).takeWhile(_ <= math.min(n, lMax)).toArray
  }

  /** Neighbour-list length Algorithm 3 needs for candidate ℓs `ls` over n
    * tuples: the largest ℓ, or kv validation neighbours besides the tuple
    * itself if more, capped at n (0 over an empty relation, whose `ls` is
    * empty).
    */
  def listLength(n: Int, ls: Array[Int], p: Params): Int = math.min(ls.foldLeft(p.kvEff + 1)(_ max _), n)

  /** Rejects a complete relation with a non-finite target value, naming its
    * row and column. [[Neighbors.Index]] checks only the feature columns, and
    * a NaN target would enter V of every model whose list holds its row; both
    * learning paths call this once, on the driver.
    */
  private[repro] def requireFiniteTargets(data: Array[Array[Double]], targetIdx: Int): Unit = {
    var i = 0
    while (i < data.length) { Neighbors.requireFinite(data(i)(targetIdx), i, targetIdx); i += 1 }
  }

  /** Rejects a batch of projected queries on the driver, before the index,
    * learning or any Spark job: each must have `nFeatures` finite values.
    * The error names the query row and the feature position.
    */
  private[repro] def requireQueries(queries: Array[Array[Double]], nFeatures: Int): Unit = {
    var i = 0
    while (i < queries.length) {
      val q = queries(i)
      require(q.length == nFeatures, s"query $i has ${q.length} features, expected $nFeatures")
      var a = 0
      while (a < q.length) {
        require(java.lang.Double.isFinite(q(a)), s"query $i: query feature $a is not finite (${q(a)})")
        a += 1
      }
      i += 1
    }
  }

  /** Full sorted learning-neighbour list (self included, at distance 0) for
    * every tuple, truncated at `limit` entries.
    */
  def neighborLists(data: Array[Array[Double]], featIdx: Array[Int], limit: Int): Array[Array[Int]] =
    neighborLists(Neighbors.Index(data, featIdx), limit)

  /** [[neighborLists]] over a prebuilt index. */
  def neighborLists(index: Neighbors.Index, limit: Int): Array[Array[Int]] =
    Array.tabulate(index.data.length)(i => index.nearestTo(i, limit))

  /** Algorithm 1: learn one model per tuple over a fixed number ℓ of
    * learning neighbours.
    */
  def learnFixed(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                 ell: Int, alpha: Double): Array[Vec] = {
    val e = math.min(ell, data.length)
    candidateModels(data, featIdx, targetIdx, neighborLists(data, featIdx, e), Array(e), alpha).map(_(0))
  }

  /** Candidate models for every tuple and candidate ℓ, computed with the
    * incremental update of Proposition 3: one pass per tuple, appending
    * neighbours in distance order and solving at each candidate ℓ.
    * Result is indexed `[tuple][candidateIdx]`.
    */
  def candidateModels(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                      lists: Array[Array[Int]], ls: Array[Int], alpha: Double): Array[Array[Vec]] =
    Array.tabulate(data.length)(i => candidateModelsFor(data, featIdx, targetIdx, lists(i), ls, alpha))

  /** Incremental candidate models of one tuple over its neighbour `list`,
    * one per candidate ℓ: the models [[adaptiveFor]] validates one by one.
    */
  def candidateModelsFor(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                         list: Array[Int], ls: Array[Int], alpha: Double): Array[Vec] = {
    val out = new Array[Vec](ls.length)
    var li = 0
    sweep(data, featIdx, targetIdx, list, ls, alpha, 0) { model => out(li) = model.clone(); li += 1 }
    out
  }

  /** Proposition 3 over one tuple's neighbour `list`: appends its rows in
    * order to one [[Ridge.State]], read in place through `featIdx`, and
    * hands `visit` the candidate model of each ℓ in `ls.drop(from)`, in
    * order, in one reused buffer, which it returns holding the last one.
    * ℓ is capped at the list's length; ℓ ≤ 1 gives §III-A2's constant
    * model φ = (t_i[A_m], 0, …, 0), any other ℓ the in-place ridge solve.
    */
  private def sweep(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int, list: Array[Int],
                    ls: Array[Int], alpha: Double, from: Int)(visit: Vec => Unit): Vec = {
    val st = new Ridge.State(featIdx.length, alpha)
    val model = new Array[Double](featIdx.length + 1)
    var pos = 0
    var li = from
    while (li < ls.length) {
      val ell = math.min(ls(li), list.length)
      while (pos < ell) {
        val row = data(list(pos))
        st.add(row, featIdx, row(targetIdx), 1.0)
        pos += 1
      }
      if (ell > 1) st.solveInto(st.v, model)
      else { java.util.Arrays.fill(model, 0.0); model(0) = data(list(0))(targetIdx) }
      visit(model)
      li += 1
    }
    model
  }

  /** Candidate models recomputed from scratch for every ℓ (Algorithm 1 called
    * per ℓ, as Algorithm 3 is written) — the baseline that validates the
    * incremental path and anchors the Table III timing comparison.
    */
  def candidateModelsNaive(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                           lists: Array[Array[Int]], ls: Array[Int], alpha: Double): Array[Array[Vec]] = {
    val n = data.length
    val out = Array.fill(n)(new Array[Vec](ls.length))
    var li = 0
    while (li < ls.length) {
      val ell = Array(ls(li))
      var i = 0
      while (i < n) {
        out(i)(li) = candidateModelsFor(data, featIdx, targetIdx, lists(i), ell, alpha)(0)
        i += 1
      }
      li += 1
    }
    out
  }

  /** Reverse neighbour lists: `rev(i)` holds, in ascending order, every
    * tuple j that has i among the first k entries of `lists(j)` other than j
    * itself — the validation tuples that tuple i's models would impute
    * (Algorithm 3 line 4).
    */
  def reverseLists(lists: Array[Array[Int]], k: Int): Array[Array[Int]] = {
    val rev = Array.fill(lists.length)(Array.newBuilder[Int])
    var j = 0
    while (j < lists.length) {
      // j sits in its own list at distance 0 (behind any duplicate rows of
      // lower index); it is not its own validation neighbour.
      val list = lists(j)
      var taken = 0; var p = 0
      while (p < list.length && taken < k) {
        if (list(p) != j) { rev(list(p)) += j; taken += 1 }
        p += 1
      }
      j += 1
    }
    rev.map(_.result())
  }

  /** Validation costs of one tuple (Algorithm 3 lines 3–7): `cost[li]` sums,
    * over the `validators` in the order given, the squared error of the
    * tuple's li-th candidate model when imputing each validation tuple.
    */
  def costsFor(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
               validators: Array[Int], models: Array[Vec]): Array[Double] =
    models.map(costOf(data, featIdx, targetIdx, validators, _))

  /** One entry of [[costsFor]]: the squared errors of `model`, as
    * [[Ridge.predict]] computes it, summed over `validators` in order.
    */
  private def costOf(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                     validators: Array[Int], model: Vec): Double = {
    var cost = 0.0
    var p = 0
    while (p < validators.length) {
      val row = data(validators(p))
      var y = model(0); var j = 0
      while (j < featIdx.length) { y += model(j + 1) * row(featIdx(j)); j += 1 }
      val d = row(targetIdx) - y
      cost += d * d
      p += 1
    }
    cost
  }

  /** Validation costs of every tuple, `[tuple][candidateIdx]`, each summed
    * over its validation tuples j in ascending order. `ls` is unused; it is
    * kept so callers pass the same arguments as to [[candidateModels]].
    */
  def validationCosts(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                      lists: Array[Array[Int]], models: Array[Array[Vec]],
                      ls: Array[Int], k: Int): Array[Array[Double]] = {
    val rev = reverseLists(lists, k)
    Array.tabulate(data.length)(i => costsFor(data, featIdx, targetIdx, rev(i), models(i)))
  }

  /** Argmin over candidate ℓ of one tuple (Algorithm 3 lines 8–10). A tuple
    * with an all-zero cost row was never anyone's imputation neighbour; it
    * falls back to the largest candidate ℓ (under-fit-safe, GLR-like). The
    * chosen candidate is returned by reference.
    */
  def selectModel(models: Array[Vec], cost: Array[Double]): Vec = {
    var best = 0; var bestC = cost(0); var any = cost(0) > 0.0
    var li = 1
    while (li < cost.length) {
      if (cost(li) > 0.0) any = true
      if (cost(li) < bestC) { bestC = cost(li); best = li }
      li += 1
    }
    models(if (any) best else cost.length - 1)
  }

  /** [[selectModel]] for every tuple. */
  def selectModels(models: Array[Array[Vec]], cost: Array[Array[Double]]): Array[Vec] =
    Array.tabulate(models.length)(i => selectModel(models(i), cost(i)))

  /** Algorithm 3 for one tuple, the kernel both learning paths run: learn
    * its candidate models over its neighbour `list` with the Proposition 3
    * update, validate each on the tuple's `validators` (its entry of
    * [[reverseLists]]) right after its solve, and return the chosen one,
    * bit for bit `selectModel(candidateModelsFor(…), costsFor(…))`.
    *
    * It keeps one [[Ridge.State]] and two model buffers, the candidate and
    * a copy of the best so far, and allocates nothing per row or candidate.
    * The running argmin follows [[selectModel]]: strict `<`, and the
    * largest ℓ when every cost is 0. A tuple with no validators therefore
    * gets its largest-ℓ model, and only that candidate is solved.
    */
  def adaptiveFor(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                  list: Array[Int], validators: Array[Int], ls: Array[Int], alpha: Double): Vec = {
    val best = new Array[Double](featIdx.length + 1)
    var bestCost = 0.0; var noBest = true; var anyCost = false
    val from = if (validators.isEmpty) ls.length - 1 else 0
    val last = sweep(data, featIdx, targetIdx, list, ls, alpha, from) { model =>
      val cost = costOf(data, featIdx, targetIdx, validators, model)
      if (cost > 0.0) anyCost = true
      if (noBest || cost < bestCost) { System.arraycopy(model, 0, best, 0, best.length); bestCost = cost; noBest = false }
    }
    if (anyCost) best else last
  }

  /** Algorithm 3 end-to-end: the neighbour lists, their reverse lists, then
    * [[adaptiveFor]] per tuple — the calls the Spark path makes too.
    */
  def adaptive(data: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int, p: Params): Array[Vec] =
    adaptive(Neighbors.Index(data, featIdx), targetIdx, p)

  /** [[adaptive]] over a prebuilt index of the complete relation. */
  def adaptive(index: Neighbors.Index, targetIdx: Int, p: Params): Array[Vec] = {
    requireFiniteTargets(index.data, targetIdx)
    adaptiveMasked(index, targetIdx, p, Array.fill(index.data.length)(true))
  }

  /** [[adaptive]] for the tuples `marked` flags; the others' models are
    * null. A marked tuple gets its full [[listLength]] list, every other one
    * only the (kv + 1)-prefix [[reverseLists]] reads, so each list is one
    * search and the reverse lists equal those of [[adaptive]].
    */
  private def adaptiveMasked(index: Neighbors.Index, targetIdx: Int, p: Params, marked: Array[Boolean]): Array[Vec] = {
    val data = index.data; val n = data.length
    val ls = ellCandidates(n, p.lMax, p.step)
    val full = listLength(n, ls, p); val short = validationLength(n, p)
    val lists = Array.tabulate(n)(i => index.nearestTo(i, if (marked(i)) full else short))
    val rev = reverseLists(lists, p.kvEff)
    Array.tabulate(n)(i =>
      if (marked(i)) adaptiveFor(data, index.featIdx, targetIdx, lists(i), rev(i), ls, p.alpha) else null)
  }

  /** The list length [[reverseLists]] reads at kv validation neighbours:
    * kv entries besides the tuple itself, capped at n.
    */
  private[repro] def validationLength(n: Int, p: Params): Int = math.min(p.kvEff + 1, n)

  /** Algorithm 2 for a batch of projected `queries` over only the models it
    * reads. After the relation's targets are checked, each query's k
    * nearest tuples are looked up once and marked; `learn` gets the marks
    * and returns the marked tuples' models (any others may be null); each
    * query then votes over its stored neighbours. No query, no learning;
    * a query over an empty relation is an error, raised before learning.
    */
  private[repro] def imputeMasked(index: Neighbors.Index, targetIdx: Int, queries: Array[Array[Double]], k: Int)(
      learn: Array[Boolean] => Array[Vec]): Array[Double] = {
    requireFiniteTargets(index.data, targetIdx)
    if (queries.isEmpty) return Array.emptyDoubleArray
    require(index.data.nonEmpty, s"complete relation is empty: no tuple to impute ${queries.length} queries from")
    val nn = queries.map(index.nearest(_, k))
    val marked = new Array[Boolean](index.data.length)
    nn.foreach(_.foreach(marked(_) = true))
    val models = learn(marked)
    Array.tabulate(queries.length)(q => vote(models, nn(q), queries(q)))
  }

  /** Formulas 10–12: candidates vote for each other; weight ∝ 1 / Σ_j |c_i − c_j|. */
  def combine(cands: Array[Double]): Double = {
    val k = cands.length
    require(k > 0, "no imputation candidates")
    if (k == 1) return cands(0)
    val c = new Array[Double](k)
    var i = 0
    while (i < k) {
      var s = 0.0; var j = 0
      while (j < k) { s += math.abs(cands(i) - cands(j)); j += 1 }
      c(i) = s
      i += 1
    }
    // All candidates (numerically) identical → any of them.
    if (c.forall(_ <= 1e-12)) return cands(0)
    var wSum = 0.0; var acc = 0.0
    i = 0
    while (i < k) {
      val w = 1.0 / math.max(c(i), 1e-12)
      wSum += w; acc += w * cands(i)
      i += 1
    }
    acc / wSum
  }

  /** Algorithm 2: impute one query (projected features) from the k nearest
    * complete tuples' individual models.
    */
  def imputeOne(data: Array[Array[Double]], models: Array[Vec], featIdx: Array[Int],
                qF: Array[Double], k: Int): Double =
    vote(models, Neighbors.nearest(data, featIdx, qF, k), qF)

  /** [[imputeOne]] with the neighbours looked up in a prebuilt index. */
  def imputeOne(index: Neighbors.Index, models: Array[Vec], qF: Array[Double], k: Int): Double =
    vote(models, index.nearest(qF, k), qF)

  private def vote(models: Array[Vec], nn: Array[Int], qF: Array[Double]): Double =
    combine(nn.map(i => Ridge.predict(models(i), qF)))

  /** [[Imputer]] adapter running the local pipeline over one index of the
    * complete relation, shared by learning and every query. It learns only
    * the models its queries read ([[imputeMasked]]) and returns, bit for
    * bit, [[adaptive]] followed by [[imputeOne]] per query.
    */
  final class LocalImputer(p: Params) extends Imputer {
    override def name: String = "IIM"
    override def imputeAll(complete: Array[Array[Double]], featIdx: Array[Int], targetIdx: Int,
                           queries: Array[Array[Double]], seed: Long): Array[Double] = {
      requireQueries(queries, featIdx.length)
      val index = Neighbors.Index(complete, featIdx)
      imputeMasked(index, targetIdx, queries, p.k)(adaptiveMasked(index, targetIdx, p, _))
    }
  }
}
