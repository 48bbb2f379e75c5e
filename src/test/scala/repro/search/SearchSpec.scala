package repro.search

import java.lang.ref.WeakReference

import scala.util.Random

import org.scalacheck.{Gen, Prop}

import repro.{PropCheck, SparkSpec}
import repro.core.{MinHash, Similarity, TableSketch, TableSketcher}
import repro.lake.LakeTable
import repro.lakebench.WikiLake
import repro.nn.Metrics

class SearchSpec extends SparkSpec {

  private lazy val lake = WikiLake.generate(seed = 13, nClasses = 6, entitiesPerClass = 150,
                                            schemasPerClass = 3, tablesPerSchema = 3)
  private lazy val tables = lake.lakeTables
  private lazy val sketches = TableSketcher.sketchCorpus(tables)

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
      assert(Similarity.cosine(ea, eb) > Similarity.cosine(ea, eo),
        "same-class entity columns must be closer than cross-class")
    }
  }

  test("embedding NN join over the in-memory index returns ranked joinable tables") {
    val results = JoinSearch.searchEmbeddings(spark, JoinSearch.embeddingsDf(spark, sketches, tables), queries.take(3), k = 5)
    assert(results.keySet == queries.take(3).map(_._1).toSet)
    results.foreach { case (q, ranked) =>
      assert(ranked.headOption.exists(JoinSearch.relevant(lake, q)),
        s"$q: first hit ${ranked.headOption} is not a sensibly joinable table")
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

  test("embedding search equals a brute-force scan, ties and edge queries included") {
    val base = JoinSearch.embeddingsDf(spark, sketches, tables)
    val twin = lake.tables(9).table.id
    // An exact copy of one table under a new id: every query ties on the pair.
    val cols = new Random(7).shuffle(base ++ base.filter(_.tableId == twin).map(_.copy(tableId = s"$twin-copy")))
    val lakeSize = cols.map(_.tableId).distinct.size
    val qs = queries.take(4) ++ Seq(("no-such-table", 0), (queries.head._1, 1))
    val all = Seq(1, 5, lakeSize + 3).map { k =>
      val got = JoinSearch.searchEmbeddings(spark, cols, qs, k)
      assert(got == bruteForce(cols, qs, k), s"k=$k")
      assert(!got.contains("no-such-table"))
      got
    }.last
    assert(all(queries.head._1).size == lakeSize - 1)
    val ranked = all(queries(1)._1)
    assert(ranked.indexOf(s"$twin-copy") == ranked.indexOf(twin) + 1, "tie broken by table id")
  }

  test("embedding search beats value-overlap baselines on sensible-join GT") {
    def f1(results: Map[String, Seq[String]]): Double =
      Metrics.mean(queries.map { case (q, _) =>
        Metrics.f1AtK(results.getOrElse(q, Seq.empty), JoinSearch.relevant(lake, q), 5) })
    val ours  = f1(JoinSearch.searchEmbeddings(spark, JoinSearch.embeddingsDf(spark, sketches, tables), queries, 5))
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
        val qSet = tables(q).values(0).toSet
        val topOverlap = tables(top).columnNames.indices
          .map(i => tables(top).values(i).toSet.intersect(qSet).size).max
        assert(topOverlap > 0, "top JOSIE hit must overlap")
      }
    }
  }

  /** Reference JOSIE-lite: the value set of every lake column, built per
    * call, intersected with the query column's.
    */
  private def josieOracle(tables: Map[String, LakeTable], queries: Seq[(String, Int)], k: Int): Map[String, Seq[String]] = {
    val colSets: Map[String, Seq[Set[String]]] =
      tables.map { case (id, t) => id -> t.columnNames.indices.map(i => t.values(i).toSet) }
    queries.map { case (qt, qc) =>
      val qSet = colSets(qt)(qc)
      val overlaps = tables.keys.filter(c => c != qt && colSets(c).nonEmpty)
        .map(cand => cand -> colSets(cand).map(s => s.intersect(qSet).size).max.toDouble)
      qt -> Ranking.top(overlaps.filter(_._2 > 0), k)
    }.toMap
  }

  /** Reference LSHForest-lite: a band-key index of the whole lake, built
    * per call by `groupBy`, looked up with the query's band keys.
    */
  private def lshOracle(sketches: Map[String, TableSketch], queries: Seq[(String, Int)], k: Int): Map[String, Seq[String]] = {
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

  test("JOSIE-lite and LSHForest-lite return exactly their whole-lake oracles' lists") {
    // Few distinct values, so columns overlap, repeat values and share bands.
    val blank = Gen.oneOf("", "  ", null: String)
    val cell  = Gen.frequency(6 -> Gen.oneOf("a", "b", "c", "d", "e", "f", "g"), 1 -> blank)
    def table(id: String): Gen[LakeTable] = for {
      nCols  <- Gen.frequency(1 -> Gen.const(0), 6 -> Gen.choose(1, 3))
      kinds  <- Gen.listOfN(nCols, Gen.frequency(1 -> Gen.const(blank), 4 -> Gen.const(cell)))  // some columns all blank
      nRows  <- Gen.choose(0, 6)
      rows   <- Gen.listOfN(nRows, Gen.sequence[List[String], String](kinds))
    } yield LakeTable(id, "", (0 until nCols).map(i => s"c$i"), rows)
    val lakeGen = for {
      n     <- Gen.choose(1, 6)
      ts    <- Gen.sequence[List[LakeTable], LakeTable]((0 until n).map(i => table(s"t$i.csv")))
      twins <- Gen.someOf(ts)  // exact copies under new ids: ties on every score
    } yield (ts ++ twins.map(t => t.copy(id = s"${t.id}-twin"))).map(t => t.id -> t).toMap
    val caseGen = for {
      lake <- lakeGen
      qs   <- Gen.someOf(lake.values.toSeq.flatMap(t => (0 until t.numCols).map(t.id -> _)))
    } yield (lake, qs.toSeq)
    var hits = 0
    PropCheck.check(Prop.forAllNoShrink(caseGen) { case (lake, qs) =>
      val sk = TableSketcher.sketchCorpus(lake)
      (1 to lake.size + 2).forall { k =>
        val josie = JoinSearch.searchJosie(lake, qs, k)
        val lsh   = JoinSearch.searchLsh(sk, qs, k)
        if (k == lake.size && josie.values.exists(_.size > 1) && lsh.values.exists(_.size > 1)) hits += 1
        josie == josieOracle(lake, qs, k) && lsh == lshOracle(sk, qs, k)
      }
    }, minSuccessful = 200)
    assert(hits > 20, s"only $hits lakes ranked more than one table on both methods")
  }

  test("tables that share only blank cells are not JOSIE-lite candidates") {
    val q = LakeTable("q.csv", "", Seq("name"), Seq(Seq("alpha"), Seq(""), Seq("  ")))
    val c = LakeTable("c.csv", "", Seq("name"), Seq(Seq("beta"), Seq(""), Seq("  "), Seq(null)))
    assert(q.values(0) == Seq("alpha"))
    val res = JoinSearch.searchJosie(Map(q.id -> q, c.id -> c), Seq((q.id, 0)), k = 5)
    assert(res(q.id).isEmpty, s"blank cells counted as shared values: ${res(q.id)}")
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

  test("a zero-column lake table is never a candidate and crashes no search") {
    val empty = LakeTable("no_cols.csv", "", Seq.empty, Seq(Seq.empty, Seq.empty))
    val lake2 = tables + (empty.id -> empty)
    val sk2   = sketches + (empty.id -> TableSketcher.sketch(empty))
    // k covers the whole lake, so a method that ranked the empty table at
    // all would return it.
    val k  = lake2.size
    val qs = lake2.keys.filter(_ != empty.id).take(4).toSeq
    val results = Seq(
      "TabSketchFM join"  -> JoinSearch.searchEmbeddings(spark, JoinSearch.embeddingsDf(spark, sk2, lake2), queries, k),
      "LSHForest"         -> JoinSearch.searchLsh(sk2, queries, k),
      "JOSIE"             -> JoinSearch.searchJosie(lake2, queries, k),
      "EmbedJoin"         -> JoinSearch.searchEmbedJoin(lake2, queries, k),
      "TabSketchFM union" -> UnionSearch.searchEmbeddings(sk2, lake2, qs, k),
      "D3L"               -> UnionSearch.searchD3L(sk2, qs, k),
      "SANTOS"            -> UnionSearch.searchSantos(sk2, qs, k),
      "Starmie"           -> UnionSearch.searchStarmie(lake2, qs, k))
    for ((method, res) <- results) {
      assert(res.nonEmpty, method)
      assert(!res.values.exists(_.contains(empty.id)), s"$method returned the zero-column table")
    }
    assert(results.toMap.apply("TabSketchFM union").values.forall(_.size == lake2.size - 2),
      "every other table is still ranked")
  }

  test("building the join index and answering a join query start no Spark job") {
    withTempDir("emb-jobs") { dir =>
      var emb = Seq.empty[JoinSearch.ColumnEmb]
      assert(sparkJobsDuring { emb = JoinSearch.embeddingsDf(spark, sketches, tables, dir) } == 0)
      assert(sparkJobsDuring(JoinSearch.searchEmbeddings(spark, emb, queries.take(1), 5)) == 0)
      assert(new java.io.File(dir).list().isEmpty, "the index wrote to its path")
    }
  }

  test("a join query posts no SQL-execution event, which would hold the index") {
    val emb = JoinSearch.embeddingsDf(spark, sketches, tables)
    val events = sparkEventsDuring(JoinSearch.searchEmbeddings(spark, emb, queries.take(2), 5))
    assert(events.isEmpty, s"events posted: ${events.map(_.getClass.getSimpleName).mkString(", ")}")
  }

  /** Builds an index, answers two queries from it, and returns a weak
    * reference to it; in a method of its own, so no stack slot of the
    * caller keeps the index alive.
    */
  private def searchOnce(): WeakReference[AnyRef] = {
    val emb = JoinSearch.embeddingsDf(spark, sketches, tables)
    JoinSearch.searchEmbeddings(spark, emb, queries.take(2), 5)
    assert(emb.size == tables.values.map(_.numCols).sum, "one index row per lake column")
    new WeakReference(emb)
  }

  test("a join index its callers have dropped becomes unreachable") {
    // Fails while anything the search leaves behind, such as a memo cache,
    // still refers to the index.
    val ref = searchOnce()
    val cleared = (1 to 50).exists { _ => System.gc(); Thread.sleep(100); ref.get == null }
    assert(cleared, "the index is still reachable after the search returned")
  }

  test("relevant equals a lake-wide scan with an id map built per call") {
    def old(queryTable: String): Set[String] = {
      val byId = lake.tables.map(t => t.table.id -> t).toMap
      val q = byId(queryTable)
      lake.tables.filter(t => t.table.id != queryTable && t.classIdx == q.classIdx &&
                              t.entityIdxs.intersect(q.entityIdxs).nonEmpty)
        .map(_.table.id).toSet
    }
    val got = lake.tables.map(t => JoinSearch.relevant(lake, t.table.id))
    assert(got == lake.tables.map(t => old(t.table.id)))
    assert(got.exists(_.nonEmpty) && got.exists(r => r.nonEmpty && r.size < lake.tables.size - 1))
  }
}
