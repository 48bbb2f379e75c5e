package repro.models

import repro.core.Similarity.{bestMatch, max}
import repro.core.Tokenizer
import repro.lake.Text
import repro.nn.Metrics.mean

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

object Header {
  /** Lowercased `names`, their token sets and the description's, and the table's counts. */
  def of(names: Seq[String], description: String, rowCount: Long, nCols: Int): Header =
    Header(names.map(Text.lower), names.map(n => Tokenizer.tokenize(n).toSet),
           Tokenizer.tokenize(description).toSet, rowCount, nCols)
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

  /** One slot per shared name: each slot keeps the largest `sim` among the
    * names hashed to it, or 0 when `sim` gives none.
    */
  def maxSlots(shared: Seq[String])(sim: String => Option[Double]): Array[Double] = {
    val slots = new Array[Double](SharedSlots)
    shared.foreach(n => sim(n).foreach { v => val s = slotOf(n); if (v > slots(s)) slots(s) = v })
    slots
  }

  /** Header-token overlap, best per-column header match, column-count and
    * description agreement, row-count ratio, then one indicator per
    * shared-name slot.
    */
  def headerFeatures(a: Header, b: Header): Array[Double] = {
    val best = bestMatch(a.tokenSets, b.tokenSets)(Tokenizer.jaccard)
    Array(
      Tokenizer.jaccard(a.allTokens, b.allTokens),
      max(best),
      mean(best),
      math.min(a.nCols, b.nCols).toDouble / math.max(1, math.max(a.nCols, b.nCols)),
      Tokenizer.jaccard(a.descTokens, b.descTokens),
      math.abs(math.log((a.rowCount + 1.0) / (b.rowCount + 1.0))),
    ) ++ maxSlots(sharedNames(a, b))(_ => Some(1.0))
  }
}
