package repro.models

import repro.core.{ColumnSketch, MinHash, TableSketch, Tokenizer}

/** Which sketch families feed the pair featurizer — drives the paper's
  * ablations (Tables 3 and 4). Header/description tokens are always
  * present, mirroring the model's token embeddings which exist in every
  * configuration of the paper.
  */
case class SketchMask(minhash: Boolean = true, numerical: Boolean = true, content: Boolean = true)

object SketchMask {
  val all: SketchMask          = SketchMask()
  val onlyMinhash: SketchMask  = SketchMask(minhash = true, numerical = false, content = false)
  val onlyNumerical: SketchMask = SketchMask(minhash = false, numerical = true, content = false)
  val onlyContent: SketchMask  = SketchMask(minhash = false, numerical = false, content = true)
  val noMinhash: SketchMask    = SketchMask(minhash = false)
  val noNumerical: SketchMask  = SketchMask(numerical = false)
  val noContent: SketchMask    = SketchMask(content = false)
}

/** TabSketchFM's substitute scorer input: pairwise features computed from
  * exactly the paper's three sketch families (§3) for two tables. The
  * cross-encoder's job — contextualize the two column sets against each
  * other — appears here as soft column alignment under each sketch's own
  * similarity, aggregated into a fixed-length vector for the MLP head
  * (see DESIGN.md substitution table).
  */
object TabSketchFm {

  import PairFeatures._

  val HeaderDim: Int  = PairFeatures.HeaderDim
  val MinhashDim: Int = 12 + SharedSlots // + per-shared-name value jaccard
  val NumDim: Int     = 12 + SharedSlots // + per-shared-name mean agreement
  val ContentDim      = 3
  val Dim: Int        = HeaderDim + MinhashDim + NumDim + ContentDim

  private def header(t: TableSketch): Header =
    Header(t.columns.map(_.name.toLowerCase), t.columns.map(c => Tokenizer.tokenize(c.name).toSet),
           Tokenizer.tokenize(t.description).toSet, t.rowCount, t.columns.size)

  private def colByName(t: TableSketch, name: String): ColumnSketch =
    t.columns.find(_.name.toLowerCase == name).get

  /** Best-match MinHash statistics from A's columns into B's. */
  private def minhashDirected(a: TableSketch, b: TableSketch): (Seq[Double], Seq[Double], Seq[Double]) = {
    val jac = a.columns.map { ca =>
      if (b.columns.isEmpty) 0.0
      else b.columns.map(cb => MinHash.jaccard(ca.valueMinHash, cb.valueMinHash)).max
    }
    val con = a.columns.map { ca =>
      if (b.columns.isEmpty) 0.0
      else b.columns.map(cb =>
        MinHash.containment(ca.valueMinHash, cb.valueMinHash, ca.distinctCount, cb.distinctCount)).max
    }
    val tokStr = a.columns.filter(_.tokenMinHash.nonEmpty)
    val tok = tokStr.map { ca =>
      val cands = b.columns.filter(_.tokenMinHash.nonEmpty)
      if (cands.isEmpty) 0.0 else cands.map(cb => MinHash.jaccard(ca.tokenMinHash, cb.tokenMinHash)).max
    }
    (jac, con, tok)
  }

  private def topK(xs: Seq[Double], k: Int): Double =
    if (xs.isEmpty) 0.0 else { val t = xs.sorted.reverse.take(k); t.sum / t.size }

  private def minhashFeatures(a: TableSketch, b: TableSketch, shared: Seq[String]): Array[Double] = {
    val (jA, cA, tA) = minhashDirected(a, b)
    val (jB, cB, tB) = minhashDirected(b, a)
    val j = jA ++ jB
    val t = tA ++ tB
    val slots = new Array[Double](SharedSlots)
    shared.foreach { n =>
      val jac = MinHash.jaccard(colByName(a, n).valueMinHash, colByName(b, n).valueMinHash)
      val s = slotOf(n)
      if (jac > slots(s)) slots(s) = jac
    }
    Array(
      if (j.isEmpty) 0.0 else j.max,
      if (j.isEmpty) 0.0 else j.sum / j.size,
      topK(j, 3),
      safeDiv(j.count(_ > 0.8).toDouble, math.max(1, j.size).toDouble),
      safeDiv(j.count(_ > 0.3).toDouble, math.max(1, j.size).toDouble),
      if (cA.isEmpty) 0.0 else cA.max,
      if (cA.isEmpty) 0.0 else cA.sum / cA.size,
      if (cB.isEmpty) 0.0 else cB.max,
      if (cB.isEmpty) 0.0 else cB.sum / cB.size,
      if (t.isEmpty) 0.0 else t.max,
      if (t.isEmpty) 0.0 else t.sum / t.size,
      topK(t, 3),
    ) ++ slots
  }

  /** Distance between two numeric columns' sketch stats, scale-normalized. */
  private def numDistance(x: ColumnSketch, y: ColumnSketch): Double = {
    val idx = Seq(0, 2, 3, 6) // mean, min, max, p50
    idx.map { i =>
      val (u, v) = (x.numeric(i), y.numeric(i))
      val s = math.max(math.abs(u), math.max(math.abs(v), 1e-9))
      math.min(1.0, math.abs(u - v) / s)
    }.sum / idx.size
  }

  /** Align numeric columns: same header name wins; otherwise min distance. */
  private def alignNumeric(a: TableSketch, b: TableSketch): Seq[(ColumnSketch, ColumnSketch)] = {
    val na = a.columns.filter(_.isNumeric)
    val nb = b.columns.filter(_.isNumeric)
    if (na.isEmpty || nb.isEmpty) return Seq.empty
    val byName = nb.groupBy(_.name.toLowerCase)
    na.map { ca =>
      byName.get(ca.name.toLowerCase).map(g => (ca, g.head)).getOrElse {
        (ca, nb.minBy(cb => numDistance(ca, cb)))
      }
    }
  }

  private def numericalFeatures(a: TableSketch, b: TableSketch, shared: Seq[String]): Array[Double] = {
    // Slot similarity uses distribution *shape* (mean + quartiles): under
    // a fixed value band the extremes are identical everywhere and only
    // the shape moves with the data distribution.
    def shapeDistance(x: ColumnSketch, y: ColumnSketch): Double = {
      val idx = Seq(0, 5, 6, 7) // mean, p25, p50, p75
      idx.map { i =>
        val (u, v) = (x.numeric(i), y.numeric(i))
        val s = math.max(math.abs(u), math.max(math.abs(v), 1e-9))
        math.min(1.0, math.abs(u - v) / s)
      }.sum / idx.size
    }
    val slots = new Array[Double](SharedSlots)
    shared.foreach { n =>
      val (ca, cb) = (colByName(a, n), colByName(b, n))
      if (ca.isNumeric && cb.isNumeric) {
        val s = slotOf(n)
        val sim = 1.0 - shapeDistance(ca, cb)
        if (sim > slots(s)) slots(s) = sim
      }
    }
    val pairs = alignNumeric(a, b)
    if (pairs.isEmpty)
      return Array(0, 1, 0, 0, 1, 0, 0, 0, 0, 0, safeDiv(math.min(a.rowCount, b.rowCount).toDouble,
        math.max(1L, math.max(a.rowCount, b.rowCount)).toDouble), 0.0) ++ slots
    val dists = pairs.map { case (x, y) => numDistance(x, y) }
    def within(x: ColumnSketch, y: ColumnSketch): Boolean =
      x.numeric(2) >= y.numeric(2) - 1e-9 && x.numeric(3) <= y.numeric(3) + 1e-9
    val rangeAinB = pairs.count { case (x, y) => within(x, y) }.toDouble / pairs.size
    val rangeBinA = pairs.count { case (x, y) => within(y, x) }.toDouble / pairs.size
    val meanDiff = pairs.map { case (x, y) =>
      val s = math.max(math.abs(x.numeric(0)), math.max(math.abs(y.numeric(0)), 1e-9))
      math.min(1.0, math.abs(x.numeric(0) - y.numeric(0)) / s)
    }.sum / pairs.size
    val pctOverlap = pairs.map { case (x, y) =>
      val lo = math.max(x.numeric(4), y.numeric(4)); val hi = math.min(x.numeric(8), y.numeric(8))
      val unionLo = math.min(x.numeric(4), y.numeric(4)); val unionHi = math.max(x.numeric(8), y.numeric(8))
      if (unionHi - unionLo <= 0) 1.0 else math.max(0.0, hi - lo) / (unionHi - unionLo)
    }.sum / pairs.size
    val allA = a.columns; val allB = b.columns
    val byName = allB.groupBy(_.name.toLowerCase)
    val nameAligned = allA.flatMap(ca => byName.get(ca.name.toLowerCase).map(g => (ca, g.head)))
    val distinctLe = if (nameAligned.isEmpty) 0.0
      else nameAligned.count { case (x, y) => x.distinctCount <= y.distinctCount }.toDouble / nameAligned.size
    val distinctDiff = if (nameAligned.isEmpty) 0.0
      else nameAligned.map { case (x, y) => math.abs(x.distinctFrac - y.distinctFrac) }.sum / nameAligned.size
    val nullDiff = if (nameAligned.isEmpty) 0.0
      else nameAligned.map { case (x, y) => math.abs(x.nullFrac - y.nullFrac) }.sum / nameAligned.size
    val widthDiff = {
      val sa = allA.filter(c => !c.isNumeric); val sb = allB.filter(c => !c.isNumeric)
      if (sa.isEmpty || sb.isEmpty) 0.0
      else sa.map(ca => sb.map(cb => math.abs(ca.avgWidth - cb.avgWidth) /
        math.max(1.0, math.max(ca.avgWidth, cb.avgWidth))).min).sum / sa.size
    }
    Array(
      safeDiv(pairs.count { case (x, y) => numDistance(x, y) < 0.1 }.toDouble, pairs.size.toDouble),
      dists.sum / dists.size,
      rangeAinB, rangeBinA, meanDiff, pctOverlap,
      distinctLe, distinctDiff, nullDiff, widthDiff,
      safeDiv(math.min(a.rowCount, b.rowCount).toDouble, math.max(1L, math.max(a.rowCount, b.rowCount)).toDouble),
      safeDiv(na(a).toDouble, math.max(1, a.columns.size).toDouble) - safeDiv(na(b).toDouble, math.max(1, b.columns.size).toDouble),
    ) ++ slots
  }

  private def na(t: TableSketch): Int = t.columns.count(_.isNumeric)

  private def contentFeatures(a: TableSketch, b: TableSketch): Array[Double] = Array(
    MinHash.jaccard(a.contentMinHash, b.contentMinHash),
    MinHash.containment(a.contentMinHash, b.contentMinHash, a.distinctRowCount, b.distinctRowCount),
    MinHash.containment(b.contentMinHash, a.contentMinHash, b.distinctRowCount, a.distinctRowCount),
  )

  /** Full pair feature vector; disabled groups are zeroed (the MLP is
    * retrained per mask, so zeros are inert inputs).
    */
  def features(a: TableSketch, b: TableSketch, mask: SketchMask = SketchMask.all): Array[Double] = {
    val (ha, hb) = (header(a), header(b))
    val shared = sharedNames(ha, hb)
    val h = headerFeatures(ha, hb)
    val m = if (mask.minhash) minhashFeatures(a, b, shared) else new Array[Double](MinhashDim)
    val n = if (mask.numerical) numericalFeatures(a, b, shared) else new Array[Double](NumDim)
    val c = if (mask.content) contentFeatures(a, b) else new Array[Double](ContentDim)
    h ++ m ++ n ++ c
  }
}
