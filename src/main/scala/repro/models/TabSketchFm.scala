package repro.models

import repro.core.{ColumnSketch, MinHash, TableSketch}
import repro.core.Similarity.{bestMatch, fracAbove, max, rangeOverlap, relDiff, topMean}
import repro.nn.Metrics.mean

/** Which sketch families a TabSketchFM run keeps — the paper's ablations
  * (Tables 3 and 4). A mask zeroes the disabled groups' columns of the
  * full feature vector; the MLP is retrained per mask, so zeros are inert
  * inputs. Header/description tokens are always present, mirroring the
  * model's token embeddings which exist in every configuration of the paper.
  */
case class SketchMask(minhash: Boolean = true, numerical: Boolean = true, content: Boolean = true) {
  import TabSketchFm.{Dim, HeaderDim, MinhashDim, NumDim}

  /** A copy of a `TabSketchFm.features` vector with the disabled groups' columns zeroed. */
  def apply(x: Array[Double]): Array[Double] = {
    require(x.length == Dim, s"a TabSketchFM vector has $Dim features, not ${x.length}")
    val (m, n) = (HeaderDim + MinhashDim, HeaderDim + MinhashDim + NumDim)
    val out = x.clone()
    if (!minhash) java.util.Arrays.fill(out, HeaderDim, m, 0.0)
    if (!numerical) java.util.Arrays.fill(out, m, n, 0.0)
    if (!content) java.util.Arrays.fill(out, n, Dim, 0.0)
    out
  }

  /** A copy of TabSketchFM's feature sets with every vector masked; the labels are shared. */
  def apply(fs: Runner.FeatureSets): Runner.FeatureSets =
    fs.copy(xTrain = fs.xTrain.map(apply), xValid = fs.xValid.map(apply), xTest = fs.xTest.map(apply))
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

  /** One table of a pair: its sketch, its `Header`, and its columns under
    * the folded names that the header computed, in column order. A folded
    * name stands for the first column that carries it.
    */
  private final class Side(val t: TableSketch) {
    val header: Header = Header.of(t.columns.map(_.name), t.description, t.rowCount, t.columns.size)
    val named: Seq[(String, ColumnSketch)] = header.names.zip(t.columns)

    /** Each folded name of the columns that `keep` accepts, mapped to the first of them that carries it. */
    def byName(keep: ColumnSketch => Boolean): Map[String, ColumnSketch] =
      named.filter(nc => keep(nc._2)).distinctBy(_._1).toMap

    val col: Map[String, ColumnSketch] = byName(_ => true)
  }

  /** Best-match MinHash statistics from A's columns into B's. */
  private def minhashDirected(a: TableSketch, b: TableSketch): (Seq[Double], Seq[Double], Seq[Double]) = {
    val jac = bestMatch(a.columns, b.columns)((ca, cb) => MinHash.jaccard(ca.valueMinHash, cb.valueMinHash))
    val con = bestMatch(a.columns, b.columns)((ca, cb) =>
      MinHash.containment(ca.valueMinHash, cb.valueMinHash, ca.distinctCount, cb.distinctCount))
    val tok = bestMatch(a.columns.filter(_.tokenMinHash.nonEmpty), b.columns.filter(_.tokenMinHash.nonEmpty))(
      (ca, cb) => MinHash.jaccard(ca.tokenMinHash, cb.tokenMinHash))
    (jac, con, tok)
  }

  private def minhashFeatures(a: Side, b: Side, shared: Seq[String]): Array[Double] = {
    val (jA, cA, tA) = minhashDirected(a.t, b.t)
    val (jB, cB, tB) = minhashDirected(b.t, a.t)
    val j = jA ++ jB
    val t = tA ++ tB
    Array(
      max(j), mean(j), topMean(j, 3), fracAbove(j, 0.8), fracAbove(j, 0.3),
      max(cA), mean(cA), max(cB), mean(cB),
      max(t), mean(t), topMean(t, 3),
    ) ++ maxSlots(shared)(n => Some(MinHash.jaccard(a.col(n).valueMinHash, b.col(n).valueMinHash)))
  }

  /** Mean relative difference of two numeric columns' sketch stats at `idx`. */
  private def statDistance(idx: Seq[Int])(x: ColumnSketch, y: ColumnSketch): Double =
    mean(idx.map(i => relDiff(x.numeric(i), y.numeric(i))))

  /** Distance between two numeric columns' sketch stats, scale-normalized. */
  private val numDistance = statDistance(Seq(0, 2, 3, 6)) _ // mean, min, max, p50

  /** Align numeric columns: same header name wins; otherwise min distance. */
  private def alignNumeric(a: Side, b: Side): Seq[(ColumnSketch, ColumnSketch)] = {
    val na = a.named.filter(_._2.isNumeric)
    val nb = b.t.columns.filter(_.isNumeric)
    if (na.isEmpty || nb.isEmpty) return Seq.empty
    val byName = b.byName(_.isNumeric)
    na.map { case (n, ca) => (ca, byName.getOrElse(n, nb.minBy(cb => numDistance(ca, cb)))) }
  }

  private def numericalFeatures(a: Side, b: Side, shared: Seq[String]): Array[Double] = {
    // Slot similarity uses distribution *shape* (mean + quartiles): under
    // a fixed value band the extremes are identical everywhere and only
    // the shape moves with the data distribution.
    val shapeDistance = statDistance(Seq(0, 5, 6, 7)) _ // mean, p25, p50, p75
    val slots = maxSlots(shared) { n =>
      val (ca, cb) = (a.col(n), b.col(n))
      if (ca.isNumeric && cb.isNumeric) Some(1.0 - shapeDistance(ca, cb)) else None
    }
    val rowRatio = math.min(a.t.rowCount, b.t.rowCount).toDouble / math.max(1L, math.max(a.t.rowCount, b.t.rowCount))
    val pairs = alignNumeric(a, b)
    if (pairs.isEmpty) return Array(0, 1, 0, 0, 1, 0, 0, 0, 0, 0, rowRatio, 0.0) ++ slots
    val dists = pairs.map { case (x, y) => numDistance(x, y) }
    def within(x: ColumnSketch, y: ColumnSketch): Boolean =
      x.numeric(2) >= y.numeric(2) - 1e-9 && x.numeric(3) <= y.numeric(3) + 1e-9
    val rangeAinB = pairs.count { case (x, y) => within(x, y) }.toDouble / pairs.size
    val rangeBinA = pairs.count { case (x, y) => within(y, x) }.toDouble / pairs.size
    val meanDiff = mean(pairs.map { case (x, y) => relDiff(x.numeric(0), y.numeric(0)) })
    val pctOverlap = mean(pairs.map { case (x, y) => rangeOverlap(x.numeric(4), x.numeric(8), y.numeric(4), y.numeric(8)) })
    val nameAligned = a.named.flatMap { case (n, ca) => b.col.get(n).map((ca, _)) }
    val distinctLe = mean(nameAligned.map { case (x, y) => if (x.distinctCount <= y.distinctCount) 1.0 else 0.0 })
    val distinctDiff = mean(nameAligned.map { case (x, y) => math.abs(x.distinctFrac - y.distinctFrac) })
    val nullDiff = mean(nameAligned.map { case (x, y) => math.abs(x.nullFrac - y.nullFrac) })
    val widthDiff = {
      val sa = a.t.columns.filter(c => !c.isNumeric); val sb = b.t.columns.filter(c => !c.isNumeric)
      if (sb.isEmpty) 0.0
      else mean(sa.map(ca => sb.map(cb => math.abs(ca.avgWidth - cb.avgWidth) /
        math.max(1.0, math.max(ca.avgWidth, cb.avgWidth))).min))
    }
    Array(
      dists.count(_ < 0.1).toDouble / dists.size,
      mean(dists),
      rangeAinB, rangeBinA, meanDiff, pctOverlap,
      distinctLe, distinctDiff, nullDiff, widthDiff,
      rowRatio,
      numericShare(a.t) - numericShare(b.t),
    ) ++ slots
  }

  private def numericShare(t: TableSketch): Double = t.columns.count(_.isNumeric).toDouble / math.max(1, t.columns.size)

  private def contentFeatures(a: TableSketch, b: TableSketch): Array[Double] = Array(
    MinHash.jaccard(a.contentMinHash, b.contentMinHash),
    MinHash.containment(a.contentMinHash, b.contentMinHash, a.distinctRowCount, b.distinctRowCount),
    MinHash.containment(b.contentMinHash, a.contentMinHash, b.distinctRowCount, a.distinctRowCount),
  )

  /** Full pair feature vector: header, MinHash, numerical and content groups, in that order. */
  def features(a: TableSketch, b: TableSketch): Array[Double] = {
    val (sa, sb) = (new Side(a), new Side(b))
    val shared = sharedNames(sa.header, sb.header)
    headerFeatures(sa.header, sb.header) ++ minhashFeatures(sa, sb, shared) ++ numericalFeatures(sa, sb, shared) ++
      contentFeatures(a, b)
  }
}
