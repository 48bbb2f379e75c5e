package repro.models

import repro.core.Tokenizer

/** The header side of one table, as every pair featurizer reads it:
  * lowercased column names and per-column header token sets (both in
  * column order, possibly truncated to a model's column budget), the
  * description tokens, and the table's row and column counts.
  */
case class Header(
    names: Seq[String],
    tokenSets: Seq[Set[String]],
    descTokens: Set[String],
    rowCount: Long,
    nCols: Int,
) {
  lazy val allTokens: Set[String] = tokenSets.flatten.toSet
}

/** Feature pieces shared by TabSketchFM and the value-based baselines: the
  * header block and the shared-column-name slots.
  */
object PairFeatures {

  /** Per-shared-column-name slots: tasks like ECB Join hinge on *which*
    * identically-named columns agree (the cross-encoder sees both tables'
    * column tokens side by side, so it can represent this; a fixed-length
    * featurization needs explicit slots for it). Shared names are taken in
    * sorted order, so slot semantics are stable across a benchmark whose
    * tables draw headers from a common vocabulary (ECB dimensions, CKAN
    * schemas); corpora without shared headers (Wiki) leave the slots zero.
    */
  val SharedSlots = 32

  val HeaderDim: Int = 6 + SharedSlots // + shared-name indicators

  /** Each shared name hashes to a stable slot, so "the FREQ slot" means the
    * same thing in every pair of a benchmark (required for the multi-label
    * ECB Join head to key outputs off specific dimensions).
    */
  def slotOf(name: String): Int =
    math.floorMod(scala.util.hashing.MurmurHash3.stringHash(name, 0x7e55), SharedSlots)

  /** Lowercased column names present in both tables, sorted. */
  def sharedNames(a: Header, b: Header): Seq[String] =
    a.names.toSet.intersect(b.names.toSet).toSeq.sorted

  def safeDiv(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  /** Header-token overlap, best per-column header match, column-count and
    * description agreement, row-count ratio, then one indicator per
    * shared-name slot.
    */
  def headerFeatures(a: Header, b: Header): Array[Double] = {
    val best = a.tokenSets.map(sa =>
      if (b.tokenSets.isEmpty) 0.0 else b.tokenSets.map(sb => Tokenizer.jaccard(sa, sb)).max)
    val slots = new Array[Double](SharedSlots)
    sharedNames(a, b).foreach(n => slots(slotOf(n)) = 1.0)
    Array(
      Tokenizer.jaccard(a.allTokens, b.allTokens),
      if (best.isEmpty) 0.0 else best.max,
      if (best.isEmpty) 0.0 else best.sum / best.size,
      safeDiv(math.min(a.nCols, b.nCols).toDouble, math.max(1, math.max(a.nCols, b.nCols)).toDouble),
      Tokenizer.jaccard(a.descTokens, b.descTokens),
      math.abs(math.log((a.rowCount + 1.0) / (b.rowCount + 1.0))),
    ) ++ slots
  }
}
