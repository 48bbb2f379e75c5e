package repro.search

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{MinHash, Parallel, Similarity, TableSketch, Tokenizer}
import repro.lake.LakeTable
import repro.lakebench.WikiLake

/** Join search over the Wiki lake (§6.3.1, Fig. 8): given a query table's
  * entity column, retrieve lake tables that are *sensibly* joinable —
  * same ground-truth concept with entity overlap — not merely
  * value-overlapping.
  *
  * Methods:
  *  - TabSketchFM: nearest-neighbor search over contextual column
  *    embeddings (sketches + value embedding), computed as one scan of the
  *    Parquet-persisted embedding index with a per-partition top-k merged
  *    on the driver.
  *  - LSHForest-lite: MinHash band candidates ranked by estimated Jaccard.
  *  - JOSIE-lite: exact value-overlap ranking (set containment search).
  *  - EmbedJoin: value-embedding cosine only (WarpGate stand-in).
  */
object JoinSearch {

  case class ColumnEmb(tableId: String, colIdx: Int, emb: Array[Double])

  /** Build, persist to Parquet, and reload the embedding table — search
    * then runs as one scan over the Parquet data.
    */
  def embeddingsDf(spark: SparkSession, sketches: Map[String, TableSketch],
                   tables: Map[String, LakeTable], path: String): DataFrame = {
    import spark.implicits._
    val rows = Parallel.map(sketches.values.toSeq) { s =>
      val t   = tables(s.tableId)
      val ctx = Embeddings.tableContext(s)
      s.columns.map(c => ColumnEmb(s.tableId, c.position,
        Embeddings.column(c, t.values(c.position), ctx)))
    }.flatten
    spark.createDataset(rows).write.mode("overwrite").parquet(path)
    spark.read.parquet(path)
  }

  /** Top-k joinable tables per query (queries are (tableId, colIdx) of the
    * entity columns). One scan of the embedding index scores every lake
    * column against the query vectors, keeps each candidate table's best
    * score, and emits each partition's `Ranking.topScored` per query; the
    * driver merges them by max and ranks them with `Ranking.top`, exactly:
    * a table missing from a partition's top-k ranks below k tables there.
    * Cosines of finite vectors are never NaN or −0.0, so `>` and
    * `math.max` agree with `Ranking`'s order.
    */
  def searchEmbeddings(spark: SparkSession, emb: DataFrame,
                       queries: Seq[(String, Int)], k: Int): Map[String, Seq[String]] = {
    import spark.implicits._
    val wanted = queries.toSet
    val qVecs: Array[(String, Array[Array[Double]])] =
      emb.where($"tableId".isin(queries.map(_._1).distinct: _*)).as[ColumnEmb].collect()
        .filter(c => wanted((c.tableId, c.colIdx)))
        .groupBy(_.tableId).map { case (t, cs) => t -> cs.map(_.emb) }.toArray
    val partial = emb.as[ColumnEmb].mapPartitions { cols =>
      val best = qVecs.map(_ => mutable.HashMap.empty[String, Double])
      cols.foreach { c =>
        qVecs.indices.foreach { qi =>
          val (qTable, vecs) = qVecs(qi)
          if (c.tableId != qTable) vecs.foreach { v =>
            val s = Similarity.cosine(v, c.emb)
            if (best(qi).get(c.tableId).forall(s > _)) best(qi)(c.tableId) = s
          }
        }
      }
      qVecs.indices.iterator.flatMap(qi => Ranking.topScored(best(qi), k).map { case (t, s) => (qVecs(qi)._1, t, s) })
    }.collect()
    partial.groupBy(_._1).map { case (qTable, rows) =>
      qTable -> Ranking.top(rows.groupMapReduce(_._2)(_._3)(math.max), k)
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
        Embeddings.valueEmbedder.embed(t.values(i).take(100).flatMap(Tokenizer.tokenize))
      }
    }.toMap
    queries.map { case (qt, qc) =>
      val q = embs(qt)(qc)
      qt -> Ranking.lake(tables.keys, qt, k)(embs(_).nonEmpty)(c => embs(c).map(Similarity.cosine(q, _)).max)
    }.toMap
  }

  /** Ground truth: tables of the same concept with entity overlap. */
  def relevant(lake: WikiLake.Lake, queryTable: String): Set[String] = {
    val byId = lake.tables.map(t => t.table.id -> t).toMap
    val q = byId(queryTable)
    lake.tables.filter(t => t.table.id != queryTable && t.classIdx == q.classIdx &&
                            t.entityIdxs.intersect(q.entityIdxs).nonEmpty)
      .map(_.table.id).toSet
  }
}
