package repro.nn

import scala.util.hashing.MurmurHash3

/** Frozen, seeded embedding of a token bag: hash tokens into a
  * ``buckets``-dim count vector, then project with a fixed Gaussian matrix
  * and L2-normalize.
  *
  * This is the repro's stand-in for (a) the *frozen* pretrained encoders of
  * the TAPAS/TABBIE baselines (§6.1.1 — their weights stay fixed, only the
  * MLP on top learns) and (b) the off-the-shelf sentence embedder used for
  * column-value embeddings in search (§6.3). Random projections preserve
  * inner products in expectation but are not adapted to any task — exactly
  * the behavioural property those frozen models contribute.
  */
final class RandomProjection(val dim: Int, val buckets: Int, seed: Long) extends Serializable {
  /** The Gaussian matrix, bucket-major: entry (d, b) is at ``b * dim + d``.
    * Drawn row by row (d outer, b inner), so the seed fixes every entry.
    */
  private val proj: Array[Double] = {
    val rng = new scala.util.Random(seed)
    val m = new Array[Double](buckets * dim)
    var d = 0
    while (d < dim) {
      var b = 0
      while (b < buckets) { m(b * dim + d) = rng.nextGaussian() / math.sqrt(dim); b += 1 }
      d += 1
    }
    m
  }

  private def bucket(token: String): Int =
    math.floorMod(MurmurHash3.stringHash(token, 0x51ab2e17), buckets)

  /** Embed a token multiset, read once; all-zero input embeds to the zero
    * vector.
    */
  def embed(tokens: IterableOnce[String]): Array[Double] = {
    val counts = new Array[Double](buckets)
    val it = tokens.iterator
    while (it.hasNext) counts(bucket(it.next())) += 1.0
    project(counts)
  }

  /** Embed a counted bag directly (no token replication). */
  def embedCounts(bag: Map[String, Int]): Array[Double] = {
    val counts = new Array[Double](buckets)
    bag.foreach { case (t, c) => counts(bucket(t)) += c.toDouble }
    project(counts)
  }

  /** ``out(d) = Σ_b proj(d, b) · counts(b)`` summed in ascending ``b``,
    * over the nonzero buckets only. A skipped term is ±0.0, and a sum that
    * starts at +0.0 is never −0.0, so skipping leaves every bit unchanged.
    * The norm sums the squares from 0.0 in index order.
    */
  private def project(counts: Array[Double]): Array[Double] = {
    val out = new Array[Double](dim)
    var b = 0
    while (b < buckets) {
      val c = counts(b)
      if (c != 0.0) {
        val base = b * dim
        var d = 0
        while (d < dim) { out(d) += proj(base + d) * c; d += 1 }
      }
      b += 1
    }
    var sq = 0.0
    var i = 0
    while (i < dim) { sq += out(i) * out(i); i += 1 }
    val norm = math.sqrt(sq)
    if (norm > 0) { i = 0; while (i < dim) { out(i) /= norm; i += 1 } }
    out
  }
}
