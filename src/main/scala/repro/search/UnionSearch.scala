package repro.search

import repro.core.{ColumnSketch, MinHash, Parallel, Similarity, TableSketch, Tokenizer}
import repro.core.Similarity.{bestMatch, relDiff}
import repro.lake.LakeTable
import repro.nn.Metrics

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

  def searchEmbeddings(sketches: Map[String, TableSketch], tables: Map[String, LakeTable],
                       queries: Seq[String], k: Int): Map[String, Seq[String]] = {
    val embs = Parallel.map(tables.keys.toSeq)(id =>
      id -> Embeddings.table(sketches(id), tables(id))).toMap
    queries.map(q => q -> Ranking.lake(tables.keys, q, k)(c =>
      Option.when(tables(c).numCols > 0)(Similarity.cosine(embs(q), embs(c))))).toMap
  }

  /** Rank the lake for each query by the mean, over the query's columns,
    * of each column's best `colScore` against the candidate's columns.
    */
  private def searchByColumns(sketches: Map[String, TableSketch], queries: Seq[String], k: Int)
                             (colScore: (ColumnSketch, ColumnSketch) => Double): Map[String, Seq[String]] =
    queries.map { q =>
      q -> Ranking.lake(sketches.keys, q, k)(c => Option.when(sketches(c).columns.nonEmpty)(
        Metrics.mean(bestMatch(sketches(q).columns, sketches(c).columns)(colScore))))
    }.toMap

  private def headerJaccard(a: ColumnSketch, b: ColumnSketch): Double =
    Tokenizer.jaccard(Tokenizer.tokenize(a.name).toSet, Tokenizer.tokenize(b.name).toSet)

  private def tokenJaccard(a: ColumnSketch, b: ColumnSketch): Double =
    MinHash.jaccard(a.tokenMinHash, b.tokenMinHash)

  /** D3L-lite: average of five evidence types over best-aligned columns. */
  def searchD3L(sketches: Map[String, TableSketch], queries: Seq[String], k: Int): Map[String, Seq[String]] =
    searchByColumns(sketches, queries, k) { (a, b) =>
      val value   = MinHash.jaccard(a.valueMinHash, b.valueMinHash)
      val numeric = if (a.isNumeric && b.isNumeric) math.max(0.0, 1.0 - relDiff(a.numeric(0), b.numeric(0))) else 0.0
      val format  = 1.0 - math.min(1.0, math.abs(a.avgWidth - b.avgWidth) /
        math.max(1.0, math.max(a.avgWidth, b.avgWidth)))
      (value + headerJaccard(a, b) + tokenJaccard(a, b) + numeric + format) / 5.0
    }

  /** SANTOS-lite: columns agree when header tokens AND value/token
    * evidence agree (relationship-preserving semantic match).
    */
  def searchSantos(sketches: Map[String, TableSketch], queries: Seq[String], k: Int): Map[String, Seq[String]] =
    searchByColumns(sketches, queries, k) { (a, b) =>
      headerJaccard(a, b) * (0.3 + 0.7 * math.max(MinHash.jaccard(a.valueMinHash, b.valueMinHash), tokenJaccard(a, b)))
    }

  /** Starmie-lite: greedy maximum bipartite matching on per-column value
    * embeddings; table score = mean matched cosine scaled by coverage.
    */
  def searchStarmie(tables: Map[String, LakeTable], queries: Seq[String], k: Int): Map[String, Seq[String]] = {
    val embs = Embeddings.lakeColumns(tables)((t, i) => Embeddings.valueEmbedder.embed(
      Tokenizer.tokenize(t.columnNames(i)).iterator ++ t.values(i).iterator.take(60).flatMap(Tokenizer.tokenize)))
    def tableScore(a: Seq[Array[Double]], b: Seq[Array[Double]]): Double = {
      val edges = (for { (ea, i) <- a.zipWithIndex; (eb, j) <- b.zipWithIndex }
        yield (i, j, Similarity.cosine(ea, eb))).sortBy(-_._3)
      val usedA = collection.mutable.Set.empty[Int]
      val usedB = collection.mutable.Set.empty[Int]
      var total = 0.0
      edges.foreach { case (i, j, s) =>
        if (!usedA(i) && !usedB(j) && s > 0.3) { usedA += i; usedB += j; total += s }
      }
      total / math.max(a.size, 1)
    }
    queries.map(q => q -> Ranking.lake(tables.keys, q, k)(c =>
      Option.when(embs(c).nonEmpty)(tableScore(embs(q), embs(c))))).toMap
  }
}
