package repro.search

import repro.core.{ColumnSketch, MinHash, TableSketch, TableSketcher, Tokenizer}
import repro.lake.LakeTable
import repro.nn.RandomProjection

/** Column/table embeddings for search (§6.3): the sketch-derived embedding
  * concatenated with an off-the-shelf value embedding of the column's top
  * values, each block normalized to a common scale before concatenation
  * (the paper normalizes means/variances of the two vectors).
  *
  * MinHash signatures are turned into cosine-comparable vectors by mapping
  * each slot to a ±1 sign of its hash: for two signatures the expected dot
  * product equals the fraction of matching slots, i.e. the Jaccard
  * estimate — so nearest-neighbor search over these vectors ranks by
  * (approximate) set similarity while the other blocks add type, header,
  * and numeric-distribution context that pure overlap methods lack.
  */
object Embeddings {

  /** Fixed sentence-embedder stand-in (all-MiniLM analogue, DESIGN.md). */
  val valueEmbedder = new RandomProjection(dim = 48, buckets = 512, seed = 4242)

  private def signBlock(sig: Array[Long], k: Int, weight: Double): Array[Double] = {
    val out = new Array[Double](k)
    if (!MinHash.isEmpty(sig)) {
      var i = 0
      while (i < k) {
        out(i) = (if ((sig(i) & 1L) == 0L) 1.0 else -1.0) * weight / math.sqrt(k.toDouble)
        i += 1
      }
    }
    out
  }

  private def l2(xs: Array[Double]): Array[Double] = {
    val n = math.sqrt(xs.map(v => v * v).sum)
    if (n == 0) xs else xs.map(_ / n)
  }

  /** Numeric-distribution block: log-magnitude coded stats so columns with
    * similar distributions land close, plus a type flag separating string
    * from numeric columns entirely.
    */
  private def numericBlock(c: ColumnSketch, weight: Double): Array[Double] = {
    def code(v: Double): Double =
      if (v.isNaN) 0.0 else math.tanh(math.signum(v) * math.log1p(math.abs(v)) / 10.0)
    val tpe = if (c.isNumeric) 1.0 else -1.0
    Array(tpe * weight, code(c.numeric(0)) * weight, code(c.numeric(3)) * weight,
          math.tanh(c.distinctFrac) * weight, math.tanh(c.avgWidth / 20.0) * weight)
  }

  /** Table-context block: mean of the sign blocks of every string
    * column's token MinHash. Two tables about the same concept share their
    * name lexicon even when row windows are disjoint, so this block gives
    * each column the "what table am I in" context the paper's attention
    * layers provide — and it is exactly what pure value-overlap methods
    * lack when a foreign-key mention column collides with a subject column.
    * The block is scaled to norm 0.45.
    */
  def tableContext(s: TableSketch): Array[Double] = {
    val stringCols = s.columns.filter(_.tokenMinHash.nonEmpty)
    val ctx = new Array[Double](MinHash.DefaultK)
    stringCols.foreach { c =>
      val block = signBlock(c.tokenMinHash, MinHash.DefaultK, 1.0)
      var i = 0
      while (i < ctx.length) { ctx(i) += block(i) / stringCols.size; i += 1 }
    }
    l2(ctx).map(_ * 0.45)
  }

  /** Embedding of one column: sketch blocks + table context + value
    * embedding (§6.3).
    */
  def column(c: ColumnSketch, values: Seq[String], context: Array[Double] = Array.empty): Array[Double] = {
    val mh  = signBlock(c.valueMinHash, c.valueMinHash.length, weight = 1.0)
    val tok = signBlock(c.tokenMinHash, MinHash.DefaultK, weight = 0.6)
    val num = numericBlock(c, weight = 0.6)
    val hdr = l2(valueEmbedder.embed(Tokenizer.tokenize(c.name))).map(_ * 0.4)
    val ctx = if (context.isEmpty) new Array[Double](MinHash.DefaultK) else context
    val vals = l2(valueEmbedder.embed(values.take(100).flatMap(Tokenizer.tokenize))).map(_ * 0.9)
    l2(mh ++ tok ++ num ++ hdr ++ ctx ++ vals)
  }

  /** Each column's embedding, in column order, with the table's context block. */
  def columns(s: TableSketch, t: LakeTable): Seq[Array[Double]] = {
    val ctx = tableContext(s)
    s.columns.map(c => column(c, t.values(c.position), ctx))
  }

  /** Table embedding for union search: mean of its column embeddings plus
    * a content-snapshot block and a header-token block (column-name tokens
    * are first-class inputs to the model, §3).
    */
  def table(s: TableSketch, t: LakeTable): Array[Double] = {
    val cols = columns(s, t)
    val dim  = cols.headOption.fold(columnDim)(_.length)
    val mean = new Array[Double](dim)
    cols.foreach { e => var i = 0; while (i < dim) { mean(i) += e(i) / cols.size; i += 1 } }
    val content = signBlock(s.contentMinHash, MinHash.DefaultK, weight = 0.3)
    val headers = l2(valueEmbedder.embed(s.columns.flatMap(c => Tokenizer.tokenize(c.name)))).map(_ * 0.8)
    l2(l2(mean) ++ content ++ headers)
  }

  /** Length of a column embedding; a zero-column table's mean block is
    * this many zeros.
    */
  private lazy val columnDim: Int =
    column(TableSketcher.sketchColumn("", 0, Seq.empty), Seq.empty).length
}
