package repro.core

/** The similarity formulas shared by the pair featurizers and the search
  * baselines, each defined once. The summaries are empty-safe: a summary
  * of no scores is 0.
  */
object Similarity {

  /** |u − v| relative to the larger magnitude (floored at 1e-9), capped at
    * 1: 0 for equal values, 1 for values far apart or of opposite sign.
    */
  def relDiff(u: Double, v: Double): Double =
    math.min(1.0, math.abs(u - v) / math.max(math.abs(u), math.max(math.abs(v), 1e-9)))

  /** Length of the intersection of [lo1, hi1] and [lo2, hi2] over the length
    * of their hull; 1 when the hull is a single point. Both lengths are
    * halved only when the hull overflows (ends near ±1.7e308).
    */
  def rangeOverlap(lo1: Double, hi1: Double, lo2: Double, hi2: Double): Double = {
    val lo = math.max(lo1, lo2); val hi = math.min(hi1, hi2)
    val ulo = math.min(lo1, lo2); val uhi = math.max(hi1, hi2)
    if (uhi - ulo <= 0) 1.0
    else if ((uhi - ulo).isFinite) math.max(0.0, hi - lo) / (uhi - ulo)
    else math.max(0.0, hi / 2 - lo / 2) / (uhi / 2 - ulo / 2)
  }

  /** For each x, its best score against any y (0 when ys is empty). */
  def bestMatch[A, B](xs: Seq[A], ys: Seq[B])(sim: (A, B) => Double): Seq[Double] =
    xs.map(x => if (ys.isEmpty) 0.0 else ys.map(y => sim(x, y)).max)

  def max(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.max

  /** Mean of the k largest scores. */
  def topMean(xs: Seq[Double], k: Int): Double =
    if (xs.isEmpty) 0.0 else { val t = xs.sorted.reverse.take(k); t.sum / t.size }

  /** Share of the scores above t. */
  def fracAbove(xs: Seq[Double], t: Double): Double =
    xs.count(_ > t).toDouble / math.max(1, xs.size).toDouble

  /** Dot product over the common prefix, summed in index order; the cosine
    * of two unit-norm embeddings.
    */
  def cosine(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    val n = math.min(a.length, b.length)
    while (i < n) { s += a(i) * b(i); i += 1 }
    s
  }
}
