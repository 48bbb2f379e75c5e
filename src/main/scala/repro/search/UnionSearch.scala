package repro.search

import repro.core.{MinHash, Parallel, TableSketch, Tokenizer}
import repro.lake.LakeTable

/** Union search (§6.3.2, Fig. 9–10): given a query table, retrieve
  * unionable data-lake tables. Ranking methods:
  *
  *  - TabSketchFM: cosine over table embeddings (sketches + values).
  *  - D3L-lite: mean of five per-column evidence scores (value overlap,
  *    header similarity, token overlap, numeric-distribution similarity,
  *    format/width similarity) — Bogatu et al.'s five indexes.
  *  - SANTOS-lite: header-and-value semantic agreement per aligned column.
  *  - Starmie-lite: greedy bipartite matching over per-column value
  *    embeddings (contextualized-column stand-in).
  *
  * A lake table with no columns has nothing to union with and is never a
  * candidate.
  */
object UnionSearch {

  /** Rank the lake for one query by a table-level score function. */
  private def rank(corpus: Map[String, LakeTable], query: String, k: Int,
                   score: (String, String) => Double): Seq[String] =
    corpus.keys.filter(c => c != query && corpus(c).numCols > 0).map(c => (c, score(query, c))).toSeq
      .sortBy { case (id, s) => (-s, id) }.take(k).map(_._1)

  def searchEmbeddings(sketches: Map[String, TableSketch], tables: Map[String, LakeTable],
                       queries: Seq[String], k: Int): Map[String, Seq[String]] = {
    val embs = Parallel.map(tables.keys.toSeq)(id =>
      id -> Embeddings.table(sketches(id), tables(id))).toMap
    queries.map(q => q -> rank(tables, q, k, (a, b) => Embeddings.cosine(embs(a), embs(b)))).toMap
  }

  /** D3L-lite: average of five evidence types over best-aligned columns. */
  def searchD3L(sketches: Map[String, TableSketch], queries: Seq[String], k: Int): Map[String, Seq[String]] = {
    def colScore(a: repro.core.ColumnSketch, b: repro.core.ColumnSketch): Double = {
      val value  = MinHash.jaccard(a.valueMinHash, b.valueMinHash)
      val header = Tokenizer.jaccard(Tokenizer.tokenize(a.name).toSet, Tokenizer.tokenize(b.name).toSet)
      val token  = if (a.tokenMinHash.nonEmpty && b.tokenMinHash.nonEmpty)
                     MinHash.jaccard(a.tokenMinHash, b.tokenMinHash) else 0.0
      val numeric =
        if (a.isNumeric && b.isNumeric) {
          val d = math.abs(a.numeric(0) - b.numeric(0)) /
            math.max(math.abs(a.numeric(0)), math.max(math.abs(b.numeric(0)), 1e-9))
          math.max(0.0, 1.0 - math.min(1.0, d))
        } else 0.0
      val format = 1.0 - math.min(1.0, math.abs(a.avgWidth - b.avgWidth) /
        math.max(1.0, math.max(a.avgWidth, b.avgWidth)))
      (value + header + token + numeric + format) / 5.0
    }
    def tableScore(a: TableSketch, b: TableSketch): Double =
      if (a.columns.isEmpty || b.columns.isEmpty) 0.0
      else a.columns.map(ca => b.columns.map(cb => colScore(ca, cb)).max).sum / a.columns.size
    queries.map { q =>
      q -> sketches.keys.filter(c => c != q && sketches(c).columns.nonEmpty)
        .map(c => (c, tableScore(sketches(q), sketches(c)))).toSeq
        .sortBy { case (id, s) => (-s, id) }.take(k).map(_._1).toSeq
    }.toMap
  }

  /** SANTOS-lite: columns agree when header tokens AND value/token
    * evidence agree (relationship-preserving semantic match).
    */
  def searchSantos(sketches: Map[String, TableSketch], queries: Seq[String], k: Int): Map[String, Seq[String]] = {
    def colScore(a: repro.core.ColumnSketch, b: repro.core.ColumnSketch): Double = {
      val header = Tokenizer.jaccard(Tokenizer.tokenize(a.name).toSet, Tokenizer.tokenize(b.name).toSet)
      val value  = math.max(MinHash.jaccard(a.valueMinHash, b.valueMinHash),
        if (a.tokenMinHash.nonEmpty && b.tokenMinHash.nonEmpty)
          MinHash.jaccard(a.tokenMinHash, b.tokenMinHash) else 0.0)
      header * (0.3 + 0.7 * value)
    }
    def tableScore(a: TableSketch, b: TableSketch): Double =
      if (a.columns.isEmpty || b.columns.isEmpty) 0.0
      else a.columns.map(ca => b.columns.map(cb => colScore(ca, cb)).max).sum / a.columns.size
    queries.map { q =>
      q -> sketches.keys.filter(c => c != q && sketches(c).columns.nonEmpty)
        .map(c => (c, tableScore(sketches(q), sketches(c)))).toSeq
        .sortBy { case (id, s) => (-s, id) }.take(k).map(_._1).toSeq
    }.toMap
  }

  /** Starmie-lite: greedy maximum bipartite matching on per-column value
    * embeddings; table score = mean matched cosine scaled by coverage.
    */
  def searchStarmie(tables: Map[String, LakeTable], queries: Seq[String], k: Int): Map[String, Seq[String]] = {
    val embs: Map[String, Seq[Array[Double]]] = Parallel.map(tables.toSeq) { case (id, t) =>
      id -> t.columnNames.indices.map { i =>
        Embeddings.valueEmbedder.embed(
          Tokenizer.tokenize(t.columnNames(i)) ++
          t.column(i).filter(_ != null).take(60).flatMap(Tokenizer.tokenize))
      }
    }.toMap
    def tableScore(a: Seq[Array[Double]], b: Seq[Array[Double]]): Double = {
      val edges = (for { (ea, i) <- a.zipWithIndex; (eb, j) <- b.zipWithIndex }
        yield (i, j, Embeddings.cosine(ea, eb))).sortBy(-_._3)
      val usedA = collection.mutable.Set.empty[Int]
      val usedB = collection.mutable.Set.empty[Int]
      var total = 0.0
      edges.foreach { case (i, j, s) =>
        if (!usedA(i) && !usedB(j) && s > 0.3) { usedA += i; usedB += j; total += s }
      }
      total / math.max(a.size, 1)
    }
    queries.map { q =>
      q -> tables.keys.filter(c => c != q && embs(c).nonEmpty).map(c => (c, tableScore(embs(q), embs(c)))).toSeq
        .sortBy { case (id, s) => (-s, id) }.take(k).map(_._1).toSeq
    }.toMap
  }
}
