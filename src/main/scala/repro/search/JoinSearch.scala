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
    * column with the query column (overlap set similarity search). A table
    * with no columns has nothing to join on and is never a candidate.
    */
  def searchJosie(tables: Map[String, LakeTable], queries: Seq[(String, Int)], k: Int): Map[String, Seq[String]] = {
    val colSets: Map[String, Seq[Set[String]]] =
      tables.map { case (id, t) => id -> t.columnNames.indices.map(i => t.values(i).toSet) }
    queries.map { case (qt, qc) =>
      val qSet = colSets(qt)(qc)
      val overlaps = tables.keys.filter(c => c != qt && colSets(c).nonEmpty)
        .map(cand => cand -> colSets(cand).map(s => s.intersect(qSet).size).max.toDouble)
      qt -> Ranking.top(overlaps.filter(_._2 > 0), k)
    }.toMap
  }

  /** LSHForest-lite: candidates sharing a MinHash band of 4 slots, ranked
    * by the estimated Jaccard of the best-matching column.
    */
  def searchLsh(sketches: Map[String, TableSketch], queries: Seq[(String, Int)], k: Int): Map[String, Seq[String]] = {
    val rowsPerBand = 4
    val index: Map[Long, Seq[(String, Int)]] =
      sketches.values.flatMap { s =>
        s.columns.flatMap(c => MinHash.bandKeys(c.valueMinHash, rowsPerBand).map(b => b -> (s.tableId, c.position)))
      }.toSeq.groupBy(_._1).view.mapValues(_.map(_._2)).toMap
    queries.map { case (qt, qc) =>
      val qSig = sketches(qt).columns(qc).valueMinHash
      val cands = MinHash.bandKeys(qSig, rowsPerBand).flatMap(index.getOrElse(_, Seq.empty))
        .filter(_._1 != qt).distinct
      val best = cands.map { case (ct, cc) =>
        (ct, MinHash.jaccard(qSig, sketches(ct).columns(cc).valueMinHash))
      }.groupBy(_._1).view.mapValues(_.map(_._2).max)
      qt -> Ranking.top(best.toSeq, k)
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
