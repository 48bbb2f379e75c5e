package repro.search

import repro.core.{ColumnSketch, MinHash, Parallel, TableSketch, Tokenizer}
import repro.core.Similarity.{norm, normalize}
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

  /** A column's value embedding: its first 100 values, tokenized and projected. */
  def valueEmbedding(values: Seq[String]): Array[Double] =
    valueEmbedder.embed(values.iterator.take(100).flatMap(Tokenizer.tokenize))

  /** `embed(t)` for every lake table `t`, keyed by its id in `tables`, one
    * table per task on the `Parallel` pool.
    */
  def lake[A](tables: Map[String, LakeTable])(embed: LakeTable => A): Map[String, A] =
    Parallel.map(tables.toSeq) { case (id, t) => id -> embed(t) }.toMap

  /** Writes the ±1 sign of each of the first `k` slots, times `weight` over
    * √k, at `out(at)`; an empty signature leaves the block zero. Returns
    * the offset after the block.
    */
  private def signBlock(sig: Array[Long], k: Int, weight: Double, out: Array[Double], at: Int): Int = {
    if (!MinHash.isEmpty(sig)) {
      var i = 0
      while (i < k) {
        out(at + i) = (if ((sig(i) & 1L) == 0L) 1.0 else -1.0) * weight / math.sqrt(k.toDouble)
        i += 1
      }
    }
    at + k
  }

  /** Writes `x` L2-normalized, then times `weight`, at `out(at)` (two
    * roundings per entry: `x / n`, then `* weight`). Returns the offset
    * after the block.
    */
  private def unitBlock(x: Array[Double], weight: Double, out: Array[Double], at: Int): Int = {
    val n = norm(x, 0, x.length)
    var i = 0
    while (i < x.length) { out(at + i) = (if (n == 0) x(i) else x(i) / n) * weight; i += 1 }
    at + x.length
  }

  private val NumericWidth = 5

  /** Numeric-distribution block: log-magnitude coded stats so columns with
    * similar distributions land close, plus a type flag separating string
    * from numeric columns entirely. Returns the offset after the block.
    */
  private def numericBlock(c: ColumnSketch, weight: Double, out: Array[Double], at: Int): Int = {
    def code(v: Double): Double =
      if (v.isNaN) 0.0 else math.tanh(math.signum(v) * math.log1p(math.abs(v)) / 10.0)
    val tpe = if (c.isNumeric) 1.0 else -1.0
    out(at)     = tpe * weight
    out(at + 1) = code(c.numeric(0)) * weight
    out(at + 2) = code(c.numeric(3)) * weight
    out(at + 3) = math.tanh(c.distinctFrac) * weight
    out(at + 4) = math.tanh(c.avgWidth / 20.0) * weight
    at + NumericWidth
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
      val block = new Array[Double](MinHash.DefaultK)
      signBlock(c.tokenMinHash, MinHash.DefaultK, 1.0, block, 0)
      var i = 0
      while (i < ctx.length) { ctx(i) += block(i) / stringCols.size; i += 1 }
    }
    unitBlock(ctx, 0.45, ctx, 0)
    ctx
  }

  /** Embedding of one column (§6.3): the value and token MinHash sign
    * blocks, the numeric block, the header embedding, the table context and
    * the embedding of the first 100 values, written into one array at fixed
    * offsets and L2-normalized as a whole.
    */
  def column(c: ColumnSketch, values: Seq[String], context: Array[Double]): Array[Double] = {
    val out = new Array[Double](c.valueMinHash.length + MinHash.DefaultK + NumericWidth +
                                valueEmbedder.dim + context.length + valueEmbedder.dim)
    var at = signBlock(c.valueMinHash, c.valueMinHash.length, weight = 1.0, out, 0)
    at = signBlock(c.tokenMinHash, MinHash.DefaultK, weight = 0.6, out, at)
    at = numericBlock(c, weight = 0.6, out, at)
    at = unitBlock(valueEmbedder.embed(Tokenizer.tokenize(c.name)), 0.4, out, at)
    System.arraycopy(context, 0, out, at, context.length)
    at += context.length
    unitBlock(valueEmbedding(values), 0.9, out, at)
    normalize(out, 0, out.length)
    out
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
    val out  = new Array[Double](dim + MinHash.DefaultK + valueEmbedder.dim)
    cols.foreach { e => var i = 0; while (i < dim) { out(i) += e(i) / cols.size; i += 1 } }
    normalize(out, 0, dim)
    val at = signBlock(s.contentMinHash, MinHash.DefaultK, weight = 0.3, out, dim)
    unitBlock(valueEmbedder.embed(s.columns.iterator.flatMap(c => Tokenizer.tokenize(c.name))), 0.8, out, at)
    normalize(out, 0, out.length)
    out
  }

  /** Length of a column embedding with a table-context block: the sum of
    * the block widths. A zero-column table's mean block is this many zeros.
    */
  private val columnDim: Int =
    MinHash.DefaultK + MinHash.DefaultK + NumericWidth + valueEmbedder.dim + MinHash.DefaultK + valueEmbedder.dim
}
