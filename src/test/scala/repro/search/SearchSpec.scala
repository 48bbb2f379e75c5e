package repro.search

import org.apache.spark.sql.functions.{col, lit}

import repro.SparkSpec
import repro.core.TableSketcher
import repro.lakebench.WikiLake
import repro.nn.Metrics

class SearchSpec extends SparkSpec {

  private lazy val lake = WikiLake.generate(seed = 13, nClasses = 6, entitiesPerClass = 150,
                                            schemasPerClass = 3, tablesPerSchema = 3)
  private lazy val tables = lake.lakeTables
  private lazy val sketches = TableSketcher.sketchCorpus(spark, tables)

  private lazy val queries: Seq[(String, Int)] =
    lake.tables.take(8).map(t => (t.table.id, 0))

  test("column embeddings have a fixed dimension and unit norm") {
    val t = tables.values.head
    val s = sketches(t.id)
    val e = Embeddings.column(s.columns.head, t.column(0))
    assert(math.abs(math.sqrt(e.map(v => v * v).sum) - 1.0) < 1e-9)
    val e2 = Embeddings.column(s.columns.last, t.column(t.numCols - 1))
    assert(e.length == e2.length)
  }

  test("sign-block cosine approximates minhash jaccard ordering") {
    val ts = lake.tables.filter(_.classIdx == lake.tables.head.classIdx)
    if (ts.size >= 2) {
      val a = ts.head; val b = ts(1)
      val ea = Embeddings.column(sketches(a.table.id).columns.head, a.table.column(0))
      val other = lake.tables.find(_.classIdx != a.classIdx).get
      val eb = Embeddings.column(sketches(b.table.id).columns.head, b.table.column(0))
      val eo = Embeddings.column(sketches(other.table.id).columns.head, other.table.column(0))
      assert(Embeddings.cosine(ea, eb) > Embeddings.cosine(ea, eo),
        "same-class entity columns must be closer than cross-class")
    }
  }

  test("embedding NN join over parquet returns ranked joinable tables") {
    val dir = java.nio.file.Files.createTempDirectory("emb").toString
    val emb = JoinSearch.embeddingsDf(spark, sketches, tables, dir)
    val results = JoinSearch.searchEmbeddings(spark, emb, queries.take(3), k = 5)
    assert(results.size == 3)
    results.foreach { case (q, ranked) =>
      assert(ranked.size <= 5)
      assert(!ranked.contains(q), "query must not retrieve itself")
    }
  }

  /** Brute-force reference: every query vector against every lake column
    * on the driver, max per candidate table, ranked by score descending,
    * then table id ascending.
    */
  private def bruteForce(cols: Seq[JoinSearch.ColumnEmb], queries: Seq[(String, Int)],
                         k: Int): Map[String, Seq[String]] = {
    def dot(a: Array[Double], b: Array[Double]): Double = {
      var s = 0.0
      for (i <- 0 until math.min(a.length, b.length)) s += a(i) * b(i)
      s
    }
    val byKey = cols.map(c => (c.tableId, c.colIdx) -> c.emb).toMap
    queries.filter(byKey.contains).groupBy(_._1).map { case (qt, qs) =>
      val scored = cols.filter(_.tableId != qt).groupBy(_.tableId).toSeq.map { case (ct, cs) =>
        ct -> (for (q <- qs; c <- cs) yield dot(byKey(q), c.emb)).max
      }
      qt -> scored.sortBy { case (id, s) => (-s, id) }.take(k).map(_._1)
    }
  }

  test("embedding search equals a brute-force scan across partitions, ties and edge queries") {
    val dir = java.nio.file.Files.createTempDirectory("emb-oracle").toString
    val base = JoinSearch.embeddingsDf(spark, sketches, tables, dir)
    val twin = lake.tables(9).table.id
    // An exact copy of one table under a new id: every query ties on the pair.
    val emb = base.union(base.where(col("tableId") === twin).withColumn("tableId", lit(s"$twin-copy")))
      .repartition(7).cache()
    import spark.implicits._
    val cols = emb.as[JoinSearch.ColumnEmb].collect().toSeq
    val lakeSize = cols.map(_.tableId).distinct.size
    val qs = queries.take(4) ++ Seq(("no-such-table", 0), (queries.head._1, 1))
    val all = Seq(1, 5, lakeSize + 3).map { k =>
      val got = JoinSearch.searchEmbeddings(spark, emb, qs, k)
      assert(got == bruteForce(cols, qs, k), s"k=$k")
      assert(!got.contains("no-such-table"))
      got
    }.last
    assert(all(queries.head._1).size == lakeSize - 1)
    val ranked = all(queries(1)._1)
    assert(ranked.indexOf(s"$twin-copy") == ranked.indexOf(twin) + 1, "tie broken by table id")
    emb.unpersist()
  }

  test("embedding search beats value-overlap baselines on sensible-join GT") {
    val dir = java.nio.file.Files.createTempDirectory("emb2").toString
    val emb = JoinSearch.embeddingsDf(spark, sketches, tables, dir)
    def f1(results: Map[String, Seq[String]]): Double =
      Metrics.mean(queries.map { case (q, _) =>
        Metrics.f1AtK(results.getOrElse(q, Seq.empty), JoinSearch.relevant(lake, q), 5) })
    val ours  = f1(JoinSearch.searchEmbeddings(spark, emb, queries, 5))
    val josie = f1(JoinSearch.searchJosie(tables, queries, 5))
    assert(ours > 0.2, s"ours $ours")
    assert(ours >= josie - 0.05, s"ours $ours vs josie $josie")
  }

  test("LSH candidates are value-overlap driven") {
    val res = JoinSearch.searchLsh(sketches, queries, k = 5)
    assert(res.size == queries.size)
    res.values.foreach(r => assert(r.size <= 5))
  }

  test("JOSIE-lite ranks an exact-overlap table first") {
    val res = JoinSearch.searchJosie(tables, queries.take(4), k = 3)
    res.foreach { case (q, ranked) =>
      ranked.headOption.foreach { top =>
        val qSet = tables(q).column(0).toSet
        val topOverlap = tables(top).columnNames.indices
          .map(i => tables(top).column(i).toSet.intersect(qSet).size).max
        assert(topOverlap > 0, "top JOSIE hit must overlap")
      }
    }
  }

  test("union search methods return k results and exclude the query") {
    val qs = tables.keys.take(4).toSeq
    for (res <- Seq(
      UnionSearch.searchEmbeddings(sketches, tables, qs, 5),
      UnionSearch.searchD3L(sketches, qs, 5),
      UnionSearch.searchSantos(sketches, qs, 5),
      UnionSearch.searchStarmie(tables, qs, 5))) {
      assert(res.size == 4)
      res.foreach { case (q, ranked) => assert(!ranked.contains(q) && ranked.size <= 5) }
    }
  }
}
