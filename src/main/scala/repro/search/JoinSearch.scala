package repro.search

import org.apache.spark.sql.SparkSession

import repro.core.{MinHash, Similarity, TableSketch}
import repro.lake.LakeTable
import repro.lakebench.WikiLake

/** Join search over the Wiki lake (§6.3.1, Fig. 8): given a query table's
  * entity column, retrieve lake tables that are *sensibly* joinable —
  * same ground-truth concept with entity overlap — not merely
  * value-overlapping.
  *
  * Methods:
  *  - TabSketchFM: exact nearest-neighbor search over contextual column
  *    embeddings (sketches + value embedding), kept per lake table in an
  *    in-memory index and ranked by `Ranking.lake` per query table.
  *  - LSHForest-lite: MinHash band candidates ranked by estimated Jaccard.
  *  - JOSIE-lite: exact value-overlap ranking (set containment search).
  *  - EmbedJoin: value-embedding cosine only (WarpGate stand-in).
  */
object JoinSearch {

  /** The column-embedding index: each lake table's column embeddings, in
    * column order, computed on the `Parallel` pool and held in driver
    * memory. `spark` and `path` are unused; they go once perfbench's
    * `search` workload stops passing them.
    */
  def embeddingsDf(spark: SparkSession, sketches: Map[String, TableSketch],
                   tables: Map[String, LakeTable], path: String = ""): Map[String, Seq[Array[Double]]] =
    Embeddings.lake(tables)(t => Embeddings.columns(sketches(t.id), t))

  /** Top-k joinable tables per query table (queries are (tableId, colIdx)
    * of the entity columns), ranked by `Ranking.lake` on each other
    * table's best cosine over the query table's columns. A query whose
    * table or column is not in the index is dropped. `spark` is unused,
    * like `embeddingsDf`'s.
    */
  def searchEmbeddings(spark: SparkSession, index: Map[String, Seq[Array[Double]]],
                       queries: Seq[(String, Int)], k: Int): Map[String, Seq[String]] =
    queries.groupBy(_._1).flatMap { case (qt, qs) =>
      val qVecs = qs.flatMap { case (_, qc) => index.get(qt).flatMap(_.lift(qc)) }
      Option.when(qVecs.nonEmpty)(qt -> Ranking.lake(index.keys, qt, k)(c => bestCosine(qVecs, index(c))))
    }

  /** The largest cosine of any query vector with any candidate column;
    * `None` for a table without columns. Cosines of finite vectors are
    * sums from +0.0, never NaN or −0.0, so the max is the same in any order.
    */
  private def bestCosine(queryVecs: Seq[Array[Double]], candidateCols: Seq[Array[Double]]): Option[Double] =
    queryVecs.iterator.flatMap(q => candidateCols.iterator.map(Similarity.cosine(q, _))).maxOption

  /** JOSIE-lite: rank candidate tables by exact max value overlap of any
    * column with the query column (overlap set similarity search): for each
    * column, the number of its distinct values that are also query values.
    * A table with no columns has nothing to join on and is never a
    * candidate, and a table with no overlap is not returned, so a query can
    * get fewer than k tables (TabSketchFM join and EmbedJoin rank every
    * table with a column, zero scores included; no Wiki query reaches that
    * case).
    *
    * Cost: one pass over the lake's cells per query, on the `Parallel`
    * pool, with only the query column's value set built. There is no index
    * to keep between calls; JOSIE's posting lists pay off only for a caller
    * that keeps them across calls.
    */
  def searchJosie(tables: Map[String, LakeTable], queries: Seq[(String, Int)], k: Int): Map[String, Seq[String]] =
    queries.map { case (qt, qc) =>
      val qSet = tables(qt).values(qc).toSet
      // Missing cells are never in qSet, so they are never counted.
      qt -> Ranking.lake(tables.keys, qt, k) { c =>
        val t = tables(c)
        (0 until t.numCols).map(i => t.rows.iterator.map(_(i)).filter(qSet).toSet.size).maxOption
          .filter(_ > 0).map(_.toDouble)
      }
    }.toMap

  /** LSHForest-lite: candidates sharing a MinHash band of 4 slots with the
    * query column, ranked by the estimated Jaccard of the table's
    * best-matching candidate column. Like JOSIE-lite it returns only tables
    * with a candidate column, so possibly fewer than k; a column with an
    * empty signature has no band and is never a candidate, nor finds one.
    *
    * Cost: one pass over the lake columns' band keys per query, on the
    * `Parallel` pool, against a set of the query's band keys; no band index
    * of the whole lake is built or kept.
    */
  def searchLsh(sketches: Map[String, TableSketch], queries: Seq[(String, Int)], k: Int): Map[String, Seq[String]] = {
    val rowsPerBand = 4
    queries.map { case (qt, qc) =>
      val qSig = sketches(qt).columns(qc).valueMinHash
      val qBands = MinHash.bandKeys(qSig, rowsPerBand).toSet
      qt -> Ranking.lake(sketches.keys, qt, k)(c =>
        sketches(c).columns.filter(col => MinHash.bandKeys(col.valueMinHash, rowsPerBand).exists(qBands))
          .map(col => MinHash.jaccard(qSig, col.valueMinHash)).maxOption)
    }.toMap
  }

  /** EmbedJoin (WarpGate stand-in): value-embedding cosine only. Tables
    * with no columns are never candidates.
    */
  def searchEmbedJoin(tables: Map[String, LakeTable], queries: Seq[(String, Int)], k: Int): Map[String, Seq[String]] = {
    val embs = Embeddings.lake(tables)(t => t.columnNames.indices.map(i => Embeddings.valueEmbedding(t.values(i))))
    queries.map { case (qt, qc) =>
      qt -> Ranking.lake(tables.keys, qt, k)(c => bestCosine(Seq(embs(qt)(qc)), embs(c)))
    }.toMap
  }

  /** Ground truth: tables of the same concept with entity overlap. */
  def relevant(lake: WikiLake.Lake, queryTable: String): Set[String] = {
    val q = lake.byId(queryTable)
    lake.tables.filter(t => t.table.id != queryTable && t.classIdx == q.classIdx &&
                            t.entityIdxs.exists(q.entityIdxs.contains))
      .map(_.table.id).toSet
  }
}
