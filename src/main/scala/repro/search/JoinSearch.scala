package repro.search

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.core.{MinHash, Parallel, Similarity, TableSketch, Tokenizer}
import repro.lake.LakeTable
import repro.lakebench.WikiLake

/** Join search over the Wiki lake (§6.3.1, Fig. 8): given a query table's
  * entity column, retrieve lake tables that are *sensibly* joinable —
  * same ground-truth concept with entity overlap — not merely
  * value-overlapping.
  *
  * Methods:
  *  - TabSketchFM: exact nearest-neighbor search over contextual column
  *    embeddings (sketches + value embedding), one driver-side scan of the
  *    in-memory column-embedding index per query table.
  *  - LSHForest-lite: MinHash band candidates ranked by estimated Jaccard.
  *  - JOSIE-lite: exact value-overlap ranking (set containment search).
  *  - EmbedJoin: value-embedding cosine only (WarpGate stand-in).
  */
object JoinSearch {

  case class ColumnEmb(tableId: String, colIdx: Int, emb: Array[Double])

  /** The column-embedding index: one `ColumnEmb` per lake column, computed
    * on the `Parallel` pool and held in driver memory. `spark` and `path`
    * are unused; they go once perfbench's `search` workload stops passing them.
    */
  def embeddingsDf(spark: SparkSession, sketches: Map[String, TableSketch],
                   tables: Map[String, LakeTable], path: String = ""): Seq[ColumnEmb] =
    Parallel.map(sketches.values.toSeq) { s =>
      s.columns.zip(Embeddings.columns(s, tables(s.tableId)))
        .map { case (c, e) => ColumnEmb(s.tableId, c.position, e) }
    }.flatten

  /** Top-k joinable tables per query (queries are (tableId, colIdx) of the
    * entity columns), one scan of the index per query table. Each query
    * table keeps every other table's best cosine over its query columns,
    * ranked by `Ranking.top`; cosines of finite vectors are never NaN or
    * −0.0, so the max is the same in any order and a plain `>` agrees with
    * `Ranking`. `spark` is unused, like `embeddingsDf`'s.
    */
  def searchEmbeddings(spark: SparkSession, cols: Seq[ColumnEmb],
                       queries: Seq[(String, Int)], k: Int): Map[String, Seq[String]] = {
    val wanted = queries.toSet
    cols.filter(c => wanted((c.tableId, c.colIdx))).groupBy(_.tableId).map { case (qTable, qCols) =>
      val best = mutable.HashMap.empty[String, Double]
      cols.foreach { c =>
        if (c.tableId != qTable) qCols.foreach { q =>
          val s = Similarity.cosine(q.emb, c.emb)
          if (best.get(c.tableId).forall(s > _)) best(c.tableId) = s
        }
      }
      qTable -> Ranking.top(best, k)
    }
  }

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
  def searchJosie(tables: Map[String, LakeTable], queries: Seq[(String, Int)], k: Int): Map[String, Seq[String]] = {
    val lake = tables.toSeq
    queries.map { case (qt, qc) =>
      val qSet = tables(qt).values(qc).toSet
      // Missing cells are never in qSet, so they are never counted.
      val overlaps = Parallel.map(lake.filter { case (id, t) => id != qt && t.numCols > 0 }) { case (id, t) =>
        id -> (0 until t.numCols).map(i => t.rows.iterator.map(_(i)).filter(qSet).toSet.size).max.toDouble
      }
      qt -> Ranking.top(overlaps.filter(_._2 > 0), k)
    }.toMap
  }

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
    val lake = sketches.values.toSeq
    queries.map { case (qt, qc) =>
      val qSig = sketches(qt).columns(qc).valueMinHash
      val qBands = MinHash.bandKeys(qSig, rowsPerBand).toSet
      val best = Parallel.map(lake.filter(_.tableId != qt)) { s =>
        s.columns.filter(c => MinHash.bandKeys(c.valueMinHash, rowsPerBand).exists(qBands))
          .map(c => MinHash.jaccard(qSig, c.valueMinHash)).maxOption.map(s.tableId -> _)
      }.flatten
      qt -> Ranking.top(best, k)
    }.toMap
  }

  /** EmbedJoin (WarpGate stand-in): value-embedding cosine only. Tables
    * with no columns are never candidates.
    */
  def searchEmbedJoin(tables: Map[String, LakeTable], queries: Seq[(String, Int)], k: Int): Map[String, Seq[String]] = {
    val embs: Map[String, Seq[Array[Double]]] = Parallel.map(tables.toSeq) { case (id, t) =>
      id -> t.columnNames.indices.map { i =>
        Embeddings.valueEmbedder.embed(t.values(i).iterator.take(100).flatMap(Tokenizer.tokenize))
      }
    }.toMap
    queries.map { case (qt, qc) =>
      val q = embs(qt)(qc)
      qt -> Ranking.lake(tables.keys, qt, k)(embs(_).nonEmpty)(c => embs(c).map(Similarity.cosine(q, _)).max)
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
