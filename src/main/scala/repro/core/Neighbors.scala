package repro.core

/** Nearest-neighbour search over the complete relation.
  *
  * Distance is the paper's Formula 1: the Euclidean distance over the
  * attributes F divided by |F| under the root. Attributes are not rescaled,
  * so an attribute with a wide range weighs more. Queries are *projected*
  * feature vectors (values in `featIdx` order); relation rows are full
  * tuples addressed through `featIdx`.
  *
  * Two searches return the same result, the `count` nearest rows in
  * ascending (distance, index) order, so ties are broken by row index:
  *  - [[Index]] is built once per (relation, `featIdx`) and answers every
  *    lookup of learning, imputation, the Spark jobs and the kNN-based
  *    baselines with a k-d tree. The paper leaves indexing out of scope
  *    (§III-A3); the index is an extension that changes no result bit;
  *  - [[nearest]] is a linear scan with a bounded max-heap, O(n log c) for
  *    c neighbours: the reference the index is tested against, and the
  *    one-off lookup of `IIM.imputeOne` over a bare relation.
  */
object Neighbors {

  /** Formula 1: sqrt(Σ_{A∈F} (q[A]-t[A])² / |F|), with q already projected. */
  def distance(row: Array[Double], featIdx: Array[Int], q: Array[Double]): Double = {
    var s = 0.0; var a = 0
    while (a < featIdx.length) {
      val d = q(a) - row(featIdx(a))
      s += d * d
      a += 1
    }
    math.sqrt(s / featIdx.length)
  }

  /** [[distance]] to the projected point stored at `block(off until off + q.length)`:
    * the same operations in the same order, so the same bits.
    */
  private def distance(block: Array[Double], off: Int, q: Array[Double]): Double = {
    var s = 0.0; var a = 0
    while (a < q.length) {
      val d = q(a) - block(off + a)
      s += d * d
      a += 1
    }
    math.sqrt(s / q.length)
  }

  /** Indices of the `count` nearest rows of `data` to projected query `q`,
    * sorted by ascending (distance, index). `exclude` removes one row
    * (a validation tuple is not its own neighbour, §V-A Example 4).
    */
  def nearest(data: Array[Array[Double]], featIdx: Array[Int], q: Array[Double],
              count: Int, exclude: Int = -1): Array[Int] = {
    val n = data.length
    val c = math.min(count, if (exclude >= 0 && exclude < n) n - 1 else n)
    if (c <= 0) return Array.emptyIntArray
    val best = new Best(c)
    var i = 0
    while (i < n) {
      if (i != exclude) best.offer(distance(data(i), featIdx, q), i)
      i += 1
    }
    best.sorted()
  }

  /** Rejects a non-finite value at `row`, `column` of the complete relation, naming both. */
  private[core] def requireFinite(v: Double, row: Int, column: Int): Unit =
    require(java.lang.Double.isFinite(v), s"complete relation: row $row column $column is not finite ($v)")

  /** Project a full row onto the feature indices. */
  def project(row: Array[Double], featIdx: Array[Int]): Array[Double] = {
    val out = new Array[Double](featIdx.length)
    var a = 0
    while (a < featIdx.length) { out(a) = row(featIdx(a)); a += 1 }
    out
  }

  /** The c best (distance, index) pairs offered so far, in a bounded max-heap
    * whose root is the worst pair kept. Without NaN distances the order is
    * total, so the kept set and its sorted order do not depend on the order
    * of the offers.
    */
  private final class Best(c: Int) {
    private val hd = new Array[Double](c)
    private val hi = new Array[Int](c)
    private var size = 0

    def full: Boolean = size == c

    /** The largest distance kept; meaningful once [[full]]. */
    def worst: Double = hd(0)

    private def worse(a: Int, b: Int): Boolean =
      hd(a) > hd(b) || (hd(a) == hd(b) && hi(a) > hi(b))

    private def swap(a: Int, b: Int): Unit = {
      val td = hd(a); hd(a) = hd(b); hd(b) = td
      val ti = hi(a); hi(a) = hi(b); hi(b) = ti
    }

    /** Restores the heap below `pos0` among the first `end` entries. */
    private def siftDown(pos0: Int, end: Int): Unit = {
      var pos = pos0
      while (true) {
        val l = 2 * pos + 1; val r = l + 1
        var m = pos
        if (l < end && worse(l, m)) m = l
        if (r < end && worse(r, m)) m = r
        if (m == pos) return
        swap(pos, m)
        pos = m
      }
    }

    def offer(d: Double, i: Int): Unit =
      if (size < c) {
        hd(size) = d; hi(size) = i
        var pos = size
        size += 1
        while (pos > 0 && worse(pos, (pos - 1) >> 1)) { swap(pos, (pos - 1) >> 1); pos = (pos - 1) >> 1 }
      } else if (d < hd(0) || (d == hd(0) && i < hi(0))) {
        hd(0) = d; hi(0) = i
        siftDown(0, size)
      }

    /** Heap-sorts the kept pairs in place; returns their indices ascending by (distance, index). */
    def sorted(): Array[Int] = {
      var end = size - 1
      while (end > 0) { swap(0, end); siftDown(0, end); end -= 1 }
      if (size == c) hi else java.util.Arrays.copyOf(hi, size)
    }
  }

  /** An exact nearest-neighbour index over the rows of `data` projected on
    * `featIdx`, built once and queried many times. [[Index.nearest]]
    * returns exactly what [[Neighbors.nearest]] returns on the same
    * arguments, bit for bit and in the same order.
    *
    * It holds the projected features as one flat row-major block in tree
    * order and a k-d tree over it (Bentley, CACM 1975; Friedman, Bentley &
    * Finkel, TOMS 1977): each node covers a contiguous range of the block,
    * keeps the bounding box of its points, and splits at the median of its
    * widest attribute. A query descends to the nearer child first and skips
    * a node only when the distance from the query to the node's box is
    * strictly greater than the worst distance kept, so rows at the boundary
    * distance are still collected and ordered by index. That box distance is
    * computed in the order [[Neighbors.distance]] uses (gap, square, sum in
    * `featIdx` order, divide by |F|, square root); every step rounds
    * monotonically, so it never exceeds the computed distance of a point in
    * the box, and pruning never drops a row the scan would keep.
    *
    * Building rejects a relation with a non-finite value in a feature column;
    * a query rejects a non-finite feature.
    */
  final class Index private (val data: Array[Array[Double]], val featIdx: Array[Int],
                             ids: Array[Int], pts: Array[Double], nodeLo: Array[Int], nodeHi: Array[Int],
                             right: Array[Int], boxMin: Array[Double], boxMax: Array[Double])
      extends Serializable {
    private val f = featIdx.length

    /** The `count` nearest rows to projected query `q`, ascending by
      * (distance, index), without row `exclude`; as [[Neighbors.nearest]].
      */
    def nearest(q: Array[Double], count: Int, exclude: Int = -1): Array[Int] = {
      require(q.length == f, s"query has ${q.length} features, the index $f")
      var a = 0
      while (a < f) {
        require(java.lang.Double.isFinite(q(a)), s"query feature $a is not finite (${q(a)})")
        a += 1
      }
      val n = ids.length
      val c = math.min(count, if (exclude >= 0 && exclude < n) n - 1 else n)
      if (c <= 0) return Array.emptyIntArray
      val best = new Best(c)
      search(0, q, best, exclude)
      best.sorted()
    }

    /** Neighbour list of row `i` itself (self included, at distance 0). */
    def nearestTo(i: Int, count: Int): Array[Int] = nearest(project(data(i), featIdx), count)

    /** Offers the rows at tree positions `from until until`. */
    private def offerRange(from: Int, until: Int, q: Array[Double], best: Best, exclude: Int): Unit = {
      var j = from
      while (j < until) {
        val id = ids(j)
        if (id != exclude) best.offer(distance(pts, j * f, q), id)
        j += 1
      }
    }

    private def search(node: Int, q: Array[Double], best: Best, exclude: Int): Unit =
      if (right(node) < 0) offerRange(nodeLo(node), nodeHi(node), q, best, exclude)
      else {
        val l = node + 1; val r = right(node)
        val bl = boxDistance(l, q); val br = boxDistance(r, q)
        if (bl <= br) { visit(l, bl, q, best, exclude); visit(r, br, q, best, exclude) }
        else { visit(r, br, q, best, exclude); visit(l, bl, q, best, exclude) }
      }

    /** Searches `node` unless its box distance `b` is strictly beyond the worst kept. */
    private def visit(node: Int, b: Double, q: Array[Double], best: Best, exclude: Int): Unit =
      if (!(best.full && b > best.worst)) search(node, q, best, exclude)

    /** Lower bound on the [[distance]] from `q` to any point in the box of `node`. */
    private def boxDistance(node: Int, q: Array[Double]): Double = {
      val o = node * f
      var s = 0.0; var a = 0
      while (a < f) {
        val x = q(a); val lo = boxMin(o + a); val hi = boxMax(o + a)
        val g = if (x < lo) lo - x else if (x > hi) x - hi else 0.0
        s += g * g
        a += 1
      }
      math.sqrt(s / f)
    }
  }

  object Index {

    /** Points per leaf. */
    private val LeafSize = 8

    /** Build the index over `data` projected on `featIdx`. */
    def apply(data: Array[Array[Double]], featIdx: Array[Int]): Index = {
      val n = data.length; val f = featIdx.length
      require(f >= 1, "an index needs at least one feature")
      val raw = new Array[Double](n * f)
      var i = 0
      while (i < n) {
        var a = 0
        while (a < f) {
          val v = data(i)(featIdx(a))
          requireFinite(v, i, featIdx(a))
          raw(i * f + a) = v
          a += 1
        }
        i += 1
      }
      val ids = Array.range(0, n)
      // Every leaf holds at least one row, so there are at most 2n - 1 nodes.
      val cap = math.max(1, 2 * n - 1)
      val nodeLo, nodeHi, right = new Array[Int](cap)
      val boxMin, boxMax = new Array[Double](cap * f)
      var nodes = 0

      // Pre-order: a node's left child is the next node.
      def build(lo: Int, hi: Int): Unit = {
        val node = nodes
        nodes += 1
        nodeLo(node) = lo; nodeHi(node) = hi; right(node) = -1
        val o = node * f
        java.util.Arrays.fill(boxMin, o, o + f, Double.PositiveInfinity)
        java.util.Arrays.fill(boxMax, o, o + f, Double.NegativeInfinity)
        var j = lo
        while (j < hi) {
          var a = 0
          while (a < f) {
            val v = raw(ids(j) * f + a)
            if (v < boxMin(o + a)) boxMin(o + a) = v
            if (v > boxMax(o + a)) boxMax(o + a) = v
            a += 1
          }
          j += 1
        }
        var dim = 0
        for (a <- 1 until f) if (boxMax(o + a) - boxMin(o + a) > boxMax(o + dim) - boxMin(o + dim)) dim = a
        // A range of identical points is a leaf however large it is.
        if (hi - lo > LeafSize && boxMax(o + dim) > boxMin(o + dim)) {
          val mid = (lo + hi) >>> 1
          select(raw, f, dim, ids, lo, hi, mid)
          build(lo, mid)
          right(node) = nodes
          build(mid, hi)
        }
      }
      if (n > 0) build(0, n)

      val pts = new Array[Double](n * f)
      var j = 0
      while (j < n) { System.arraycopy(raw, ids(j) * f, pts, j * f, f); j += 1 }
      import java.util.Arrays.copyOf
      new Index(data, featIdx, ids, pts, copyOf(nodeLo, nodes), copyOf(nodeHi, nodes), copyOf(right, nodes),
        copyOf(boxMin, nodes * f), copyOf(boxMax, nodes * f))
    }

    /** Reorders `ids(lo until hi)` so that position `k` holds the row whose
      * attribute `dim` ranks k-th, with no larger value before it and no
      * smaller one after (quickselect with a three-way partition, so runs of
      * equal values take one pass).
      */
    private def select(raw: Array[Double], f: Int, dim: Int, ids: Array[Int], lo0: Int, hi0: Int, k: Int): Unit = {
      def key(j: Int): Double = raw(ids(j) * f + dim)
      def swap(a: Int, b: Int): Unit = { val t = ids(a); ids(a) = ids(b); ids(b) = t }
      var lo = lo0; var hi = hi0 - 1
      while (lo < hi) {
        val pivot = key((lo + hi) >>> 1)
        var lt = lo; var gt = hi; var j = lo
        while (j <= gt) {
          val v = key(j)
          if (v < pivot) { swap(lt, j); lt += 1; j += 1 }
          else if (v > pivot) { swap(j, gt); gt -= 1 }
          else j += 1
        }
        if (k < lt) hi = lt - 1 else if (k > gt) lo = gt + 1 else return
      }
    }
  }
}
