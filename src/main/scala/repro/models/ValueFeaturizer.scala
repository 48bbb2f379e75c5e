package repro.models

import repro.core.{NumericalSketch, Tokenizer, TypeInference}
import repro.core.Similarity.{bestMatch, cosine, fracAbove, max, rangeOverlap, relDiff, topMean}
import repro.lake.LakeTable
import repro.nn.Metrics.mean
import repro.nn.RandomProjection

/** Token-level view of a table under a baseline model's input budget —
  * the repro's rendering of "what slice of the table the encoder saw"
  * (§6.1.1): TaBERT reads up to 10 000 rows with per-column structure;
  * TUTA reads the first 256 tokens of the serialized table; TAPAS a
  * 512-token serialization; TABBIE the first 30 rows × 20 columns.
  */
case class ValueView(
    header: Header,               // header of the visible columns; row and column counts of the whole table
    colBags: Seq[Map[String, Int]],
    tableBag: Map[String, Int],
    colEmbs: Seq[Array[Double]],  // JL-projected per-column bag embeddings
    tableEmb: Array[Double],      // JL-projected whole-table bag embedding
    colStats: Seq[Array[Double]], // [mean, min, max] over visible parsed numerics; NaN when none
)

object ValueFeaturizer {
  import PairFeatures._

  /** The fixed "encoder geometry" for value-based baselines: one shared
    * JL projection for column bags. 48 dims ≈ cosine distortion of ~0.14,
    * the finite-capacity lossiness of a pooled transformer embedding.
    */
  private val columnEmbedder = new RandomProjection(dim = 48, buckets = 512, seed = 77)

  /** Input budget of one baseline. ``maxTokens`` caps the row-major
    * serialization (headers first, as the models do); 0 = no token cap.
    * ``effTokensPerCol`` bounds the *effective* tokens a column summary
    * can be built from (0 = unbounded): an encoder that pools chunks of a
    * long column does not retain its exact token counts, so bags above the
    * bound are re-sampled from their empirical distribution with fresh
    * (seeded) multinomial noise — large similarities survive, exact
    * count-containment artifacts do not.
    */
  case class Budget(maxRows: Int, maxCols: Int, maxTokens: Int, effTokensPerCol: Int = 0)

  val TaBertBudget: Budget = Budget(maxRows = 10000, maxCols = Int.MaxValue, maxTokens = 0,
                                    effTokensPerCol = 256)
  val TutaBudget: Budget   = Budget(maxRows = 256, maxCols = 256, maxTokens = 256)
  val TapasBudget: Budget  = Budget(maxRows = Int.MaxValue, maxCols = Int.MaxValue, maxTokens = 512)
  val TabbieBudget: Budget = Budget(maxRows = 30, maxCols = 20, maxTokens = 0)

  /** Seeded multinomial re-draw of ``n`` tokens from the bag's empirical
    * distribution (identity when the bag is already within budget).
    */
  private[models] def resampleBag(bag: Map[String, Int], n: Int, seed: Int): Map[String, Int] = {
    val total = bag.valuesIterator.sum
    if (n <= 0 || total <= n) return bag
    val rng = new scala.util.Random(seed)
    val toks = bag.toArray
    val cum = toks.scanLeft(0)(_ + _._2).drop(1)
    val counts = new Array[Int](toks.length)
    var i = 0
    while (i < n) {
      val r = rng.nextInt(total)
      var lo = 0; var hi = toks.length - 1
      while (lo < hi) { val mid = (lo + hi) / 2; if (cum(mid) <= r) lo = mid + 1 else hi = mid }
      counts(lo) += 1
      i += 1
    }
    toks.indices.iterator.filter(counts(_) > 0).map(i2 => toks(i2)._1 -> counts(i2)).toMap
  }

  /** Build the view: truncate rows/cols, then serialize row-major and stop
    * at the token cap; bags are built only from visible cells.
    */
  def view(t: LakeTable, budget: Budget): ValueView = {
    val cols = math.min(t.numCols, budget.maxCols)
    val header = Header.of(t.columnNames.take(cols), t.description, t.numRows.toLong, t.numCols)

    var tokensLeft =
      if (budget.maxTokens == 0) Int.MaxValue
      else math.max(0, budget.maxTokens - header.tokenSets.map(_.size).sum)

    val colTokens = Array.fill(cols)(List.newBuilder[String])
    val colVals   = Array.fill(cols)(List.newBuilder[Double])
    val rows = t.rows.take(budget.maxRows)
    var r = 0
    while (r < rows.size && tokensLeft > 0) {
      val row = rows(r)
      var c = 0
      while (c < cols && tokensLeft > 0) {
        val v = row(c)
        if (v != null) {
          val toks = Tokenizer.tokenize(v)
          val used = math.min(toks.size, tokensLeft)
          colTokens(c) ++= toks.take(used)
          tokensLeft -= used
          TypeInference.parseDouble(v).foreach(colVals(c) += _)
        }
        c += 1
      }
      r += 1
    }

    val colBags = (0 until cols).map { i =>
      resampleBag(Tokenizer.bag(colTokens(i).result()), budget.effTokensPerCol,
                  t.id.hashCode * 31 + i)
    }
    val tableBag = colBags.foldLeft(Map.empty[String, Int]) { (acc, b) =>
      b.foldLeft(acc) { case (m, (t2, c2)) => m.updated(t2, m.getOrElse(t2, 0) + c2) }
    }
    val colStats = (0 until cols).map { i =>
      val vs = colVals(i).result()
      if (vs.isEmpty) Array(Double.NaN, Double.NaN, Double.NaN)
      else Array(NumericalSketch.mean(vs), vs.min, vs.max)
    }
    ValueView(header, colBags, tableBag,
              colBags.map(columnEmbedder.embedCounts), columnEmbedder.embedCounts(tableBag),
              colStats)
  }

  /** Mean-pooled value-similarity features: cosines between JL-projected
    * per-column bag embeddings, both directions. The random projection is
    * the substitute for a pooled transformer embedding: it preserves large
    * similarity gaps but adds O(1/sqrt(dim)) distortion, so *small*
    * distribution shifts (e.g. the CKAN Subset drift) are invisible —
    * exactly the paper's finding that value-based encoders cannot do
    * distribution/set reasoning (§6.1.2).
    */
  def valueFeatures(a: ValueView, b: ValueView): Array[Double] = {
    val cos = bestMatch(a.colEmbs, b.colEmbs)(cosine) ++ bestMatch(b.colEmbs, a.colEmbs)(cosine)
    val slots = maxSlots(sharedNames(a.header, b.header)) { n =>
      Some(cosine(a.colEmbs(a.header.names.indexOf(n)), b.colEmbs(b.header.names.indexOf(n))))
    }
    Array(
      cosine(a.tableEmb, b.tableEmb), max(cos), mean(cos), topMean(cos, 3), fracAbove(cos, 0.8), fracAbove(cos, 0.5),
    ) ++ slots
  }

  /** Numeric-structure features over the visible window — only TUTA gets
    * these (its pretraining models cell types/formats explicitly).
    */
  def numericFeatures(a: ValueView, b: ValueView): Array[Double] = {
    val na = a.colStats.filter(s => !s(0).isNaN)
    val nb = b.colStats.filter(s => !s(0).isNaN)
    if (na.isEmpty || nb.isEmpty) return Array(0.0, 1.0, 0.0)
    val dists = na.map(sa => nb.map(sb => relDiff(sa(0), sb(0))).min)
    val overlap = bestMatch(na, nb)((sa, sb) => rangeOverlap(sa(1), sa(2), sb(1), sb(2)))
    Array(dists.count(_ < 0.2).toDouble / dists.size, mean(dists), mean(overlap))
  }
}
