package repro.lakebench

import org.scalatest.funsuite.AnyFunSuite

import repro.lake.{LakeTable, Text}

/** Shared invariants for every LakeBench generator. Generators are scaled
  * down here (small corpora) so the suite stays fast; the bench project
  * uses the default sizes.
  */
class GeneratorsSpec extends AnyFunSuite {

  private def checkInvariants(b: Benchmark): Unit = {
    val ids = b.tables.keySet
    assert(b.allPairs.nonEmpty, s"${b.name}: no pairs")
    b.allPairs.foreach { p =>
      assert(ids.contains(p.t1), s"${b.name}: unknown table ${p.t1}")
      assert(ids.contains(p.t2), s"${b.name}: unknown table ${p.t2}")
      assert(p.t1 != p.t2, s"${b.name}: self-pair")
      b.task match {
        case BinaryTask     => assert(p.label.length == 1 && (p.label(0) == 0.0 || p.label(0) == 1.0))
        case RegressionTask => assert(p.label.length == 1 && p.label(0) >= 0.0 && p.label(0) <= 1.0)
        case MultiLabelTask(names) =>
          assert(p.label.length == names.size)
          assert(p.label.forall(l => l == 0.0 || l == 1.0))
      }
    }
    // Splits are disjoint as (unordered) pairs.
    def key(p: PairExample) = if (p.t1 < p.t2) (p.t1, p.t2) else (p.t2, p.t1)
    val tr = b.train.map(key).toSet; val va = b.valid.map(key).toSet; val te = b.test.map(key).toSet
    assert(tr.intersect(va).isEmpty && tr.intersect(te).isEmpty && va.intersect(te).isEmpty,
           s"${b.name}: split leakage")
    // All referenced tables are well-formed.
    b.tables.values.foreach { t =>
      assert(t.rows.forall(_.size == t.numCols), s"${b.name}/${t.id}: ragged rows")
    }
  }

  import GeneratorsSpec.Small

  private lazy val tus = Small.tus()
  private lazy val lake = Small.wikiLake()
  private lazy val wikiUnion = Small.wikiUnion(lake)
  private lazy val wikiJac = Small.wikiJaccard(lake)
  private lazy val wikiCon = Small.wikiContainment(lake)
  private lazy val ecbUnion = Small.ecbUnion()
  private lazy val ecbJoin = Small.ecbJoin()
  private lazy val spider = Small.spider()
  private lazy val ckan = Small.ckan()

  test("TUS-SANTOS invariants")       { checkInvariants(tus) }
  test("Wiki Union invariants")       { checkInvariants(wikiUnion) }
  test("Wiki Jaccard invariants")     { checkInvariants(wikiJac) }
  test("Wiki Containment invariants") { checkInvariants(wikiCon) }
  test("ECB Union invariants")        { checkInvariants(ecbUnion) }
  test("ECB Join invariants")         { checkInvariants(ecbJoin) }
  test("Spider-OpenData invariants")  { checkInvariants(spider) }
  test("CKAN Subset invariants")      { checkInvariants(ckan) }

  test("TUS-SANTOS positives come from the same domain prefix") {
    tus.allPairs.foreach { p =>
      val d1 = p.t1.takeWhile(_ != '_'); val d2 = p.t2.takeWhile(_ != '_')
      if (p.label(0) == 1.0) assert(d1 == d2) else assert(d1 != d2)
    }
  }

  test("TUS-SANTOS is roughly balanced") {
    val pos = tus.allPairs.count(_.label(0) == 1.0).toDouble / tus.allPairs.size
    assert(pos > 0.4 && pos < 0.6, s"positive fraction $pos")
  }

  test("TUS-SANTOS headers are domain-specific (header-only is solvable)") {
    val byDomain = tus.tables.values.groupBy(_.id.takeWhile(_ != '_'))
    val vocab = byDomain.view.mapValues(_.flatMap(_.columnNames).toSet).toMap
    for (Seq(a, b) <- vocab.keys.toSeq.sorted.combinations(2)) {
      assert(vocab(a).intersect(vocab(b)).isEmpty, s"domains $a/$b share headers")
    }
  }

  test("Wiki lake tables have cryptic colN headers and a col0 entity column") {
    lake.tables.foreach { wt =>
      assert(wt.table.columnNames.head == "col0")
      assert(wt.table.columnNames.forall(_.startsWith("col")))
      assert(wt.table.numCols == wt.schema.size + 1)
    }
  }

  test("Wiki lake ground truth entity sets match table sizes") {
    lake.tables.foreach { wt =>
      assert(wt.entityIdxs.nonEmpty)
      assert(wt.entityIdxs.size <= wt.table.numRows)
    }
  }

  test("Wiki Union positives share class and schema signature") {
    val byId = lake.tables.map(t => t.table.id -> t).toMap
    wikiUnion.allPairs.foreach { p =>
      val (a, b) = (byId(p.t1), byId(p.t2))
      if (p.label(0) == 1.0) assert(a.classIdx == b.classIdx && a.schemaSig == b.schemaSig)
      else assert(a.classIdx != b.classIdx || a.schemaSig != b.schemaSig)
    }
  }

  test("Wiki Union has both kinds of negatives") {
    val byId = lake.tables.map(t => t.table.id -> t).toMap
    val negs = wikiUnion.allPairs.filter(_.label(0) == 0.0)
    val hasCrossSig = lake.tables.groupBy(_.schemaSig).values.exists(_.map(_.classIdx).distinct.size >= 2)
    if (hasCrossSig)
      assert(negs.exists { p => byId(p.t1).schemaSig == byId(p.t2).schemaSig }, "type (a) negative missing")
    assert(negs.exists { p => byId(p.t1).schemaSig != byId(p.t2).schemaSig }, "type (b) negative missing")
  }

  test("Wiki Jaccard labels equal exact ground-truth jaccard") {
    val byId = lake.tables.map(t => t.table.id -> t).toMap
    wikiJac.allPairs.take(50).foreach { p =>
      val expect = WikiLake.entityJaccard(byId(p.t1), byId(p.t2))
      assert(math.abs(p.label(0) - expect) < 1e-12)
    }
  }

  test("Wiki Containment labels are >= Jaccard labels for the same pair") {
    val byId = lake.tables.map(t => t.table.id -> t).toMap
    wikiCon.allPairs.take(50).foreach { p =>
      val j = WikiLake.entityJaccard(byId(p.t1), byId(p.t2))
      assert(p.label(0) >= j - 1e-12, "containment >= jaccard always")
    }
  }

  test("Wiki join tasks have a non-degenerate score spread") {
    val scores = wikiJac.allPairs.map(_.label(0))
    assert(scores.exists(_ == 0.0) && scores.exists(_ > 0.3))
  }

  test("ECB Union targets span the 1..12 dimension-difference range") {
    val ys = ecbUnion.allPairs.map(_.label(0)).distinct.sorted
    assert(ys.head == 0.0 && ys.last == 1.0)
    assert(ys.size >= 8, s"only ${ys.size} distinct targets")
  }

  test("ECB Union tables share the dimension-named headers") {
    val t = ecbUnion.tables.values.head
    assert(t.columnNames.contains("TIME_PERIOD"))
    assert(t.columnNames.exists(EcbLake.DimNames.contains))
  }

  test("ECB Join labels are consistent: NOJOIN excludes dimension labels") {
    val nojoinIdx = EcbJoin.LabelNames.size - 1
    ecbJoin.allPairs.foreach { p =>
      if (p.label(nojoinIdx) == 1.0) assert(p.label.take(nojoinIdx).forall(_ == 0.0))
      else assert(p.label.take(nojoinIdx).sum > 0, "joinable pair must name dimensions")
    }
  }

  test("ECB Join labeled dimensions are actually shared by both tables") {
    ecbJoin.allPairs.foreach { p =>
      val h1 = ecbJoin.tables(p.t1).columnNames.toSet
      val h2 = ecbJoin.tables(p.t2).columnNames.toSet
      EcbJoin.LabelNames.zipWithIndex.dropRight(1).foreach { case (dim, i) =>
        if (p.label(i) == 1.0) assert(h1.contains(dim) && h2.contains(dim), s"$dim not shared")
      }
    }
  }

  test("Spider positives share join-column values; negatives share none") {
    spider.allPairs.take(60).foreach { p =>
      val a = spider.tables(p.t1); val b = spider.tables(p.t2)
      val ja = a.rows.map(_.head).toSet; val jb = b.rows.map(_.head).toSet
      if (p.label(0) == 1.0) assert(ja.intersect(jb).nonEmpty, "positive quadrants must overlap")
      else assert(ja.intersect(jb).isEmpty, "diagonal quadrants must not overlap")
    }
  }

  test("Spider quadrants keep the join column as first column") {
    spider.tables.values.foreach { t =>
      assert(t.columnNames.head == "record_id" || t.columnNames.head == "reference_code")
    }
  }

  test("CKAN Subset pairs have identical schemas") {
    ckan.allPairs.foreach { p =>
      assert(ckan.tables(p.t1).columnNames == ckan.tables(p.t2).columnNames)
    }
  }

  test("CKAN Subset positives are true row subsets; negatives are not") {
    ckan.allPairs.take(40).foreach { p =>
      val a = ckan.tables(p.t1).rows.toSet
      val b = ckan.tables(p.t2).rows.toSet
      if (p.label(0) == 1.0) assert(a.subsetOf(b), "positive must be a row subset")
      else assert(a.intersect(b).isEmpty, "negative shares no rows")
    }
  }

  test("CKAN float cells are the Locale.ROOT-formatted values") {
    // Measures are clipped to [base - 3, base + 11] with base in 5..44.
    for (v <- 0 to 1000; half <- Seq(false, true))
      assert(CkanSubset.floatCell(v, half) == Text.format("%.1f", v + (if (half) 0.5 else 0.0)), s"$v $half")
  }

  test("CKAN Subset positive and negative partners have equal row counts") {
    // Pairs come in (pos, neg) bundles sharing the same Si.
    val bySubset = ckan.allPairs.groupBy(_.t1)
    bySubset.values.filter(_.size == 2).foreach { ps =>
      val sizes = ps.map(p => ckan.tables(p.t2).numRows)
      assert(sizes.distinct.size == 1, "row-count differential must not leak the label")
    }
  }

  // Benchmark name -> (pair count, digest of every pair's ids and label
  // bits) at default parameters, taken while each generator kept its own
  // set of seen pairs.
  private val defaultPairs: Map[String, (Int, String)] = Map(
    "TUS-SANTOS"       -> (2800, "8775f6effd708e6f"),
    "Wiki Union"       -> (4200, "342203626791a922"),
    "ECB Union"        -> (2100, "73e3b2a31a58f432"),
    "Wiki Jaccard"     -> (1700, "150380f545da2bad"),
    "Wiki Containment" -> (2100, "12778084d4981858"),
    "Spider-OpenData"  -> (1440, "388cdd9f26de7026"),
    "ECB Join"         -> (2016, "6c24965370b46615"),
    "CKAN Subset"      -> (2000, "8fa4132e7f239687"),
  )

  private def pairsDigest(ps: Seq[PairExample]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    ps.foreach { p =>
      md.update(p.t1.getBytes("UTF-8")); md.update(0.toByte)
      md.update(p.t2.getBytes("UTF-8")); md.update(0.toByte)
      p.label.foreach { l =>
        md.update(java.nio.ByteBuffer.allocate(8).putLong(java.lang.Double.doubleToRawLongBits(l)).array())
      }
    }
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  test("every default benchmark keeps its exact pairs, splits and labels") {
    assert(LakeBenchSuite.all.map(_.name).toSet == defaultPairs.keySet)
    for (b <- LakeBenchSuite.all) {
      val got = (b.allPairs.size, pairsDigest(b.allPairs))
      assert(defaultPairs.get(b.name).contains(got), s"${b.name}: $got")
    }
  }

  // Benchmark name -> (table count, digest of every table's id,
  // description, header and cells, null cells marked) at default
  // parameters, taken while rows were stored as the generators built them.
  private val defaultTables: Map[String, (Int, String)] = Map(
    "TUS-SANTOS"       -> (432, "e1f41546ab7a6bab"),
    "Wiki Union"       -> (882, "173aa9ebdb117af2"),
    "ECB Union"        -> (650, "e2f87a6216e19548"),
    "Wiki Jaccard"     -> (882, "173aa9ebdb117af2"),
    "Wiki Containment" -> (882, "173aa9ebdb117af2"),
    "Spider-OpenData"  -> (1440, "11428378de5e9de7"),
    "ECB Join"         -> (64, "042e9b7d8fd3bb1f"),
    "CKAN Subset"      -> (3000, "16376a684b9cb01b"),
  )

  private def tablesDigest(tables: Map[String, LakeTable]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    def int(n: Int): Unit = md.update(java.nio.ByteBuffer.allocate(4).putInt(n).array())
    def str(s: String): Unit =
      if (s == null) int(-1) else { val b = s.getBytes("UTF-8"); int(b.length); md.update(b) }
    tables.toSeq.sortBy(_._1).foreach { case (_, t) =>
      str(t.id); str(t.description)
      int(t.numCols); t.columnNames.foreach(str)
      int(t.numRows); t.rows.foreach(_.foreach(str))
    }
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  test("every default benchmark keeps its exact tables and cells") {
    assert(LakeBenchSuite.all.map(_.name).toSet == defaultTables.keySet)
    for (b <- LakeBenchSuite.all) {
      val got = (b.tables.size, tablesDigest(b.tables))
      assert(defaultTables.get(b.name).contains(got), s"${b.name}: $got")
    }
  }

  test("every table has IndexedSeq rows, also one built from List rows") {
    val fromLists = LakeTable("l.csv", "", List("a", "b"), List(List("x", null), List("", "y")))
    assert(fromLists.rows.forall(_.isInstanceOf[IndexedSeq[_]]))
    assert(fromLists.rows == List(List("x", null), List("", "y")) && fromLists.column(1) == Seq(null, "y"))
    for (b <- LakeBenchSuite.all; t <- b.tables.values)
      assert(t.rows.forall(_.isInstanceOf[IndexedSeq[_]]), s"${b.name}/${t.id}")
  }

  test("copy keeps IndexedSeq rows, also when given List rows") {
    val t = LakeTable("l.csv", "d", List("a", "b"), List(List("x", null)))
    val copied = t.copy(rows = List(List("p", "q"), List(null, " ")))
    assert(copied.rows.forall(_.isInstanceOf[IndexedSeq[_]]))
    assert(copied.rows == List(List("p", "q"), List(null, " ")) && copied.column(0) == Seq("p", null))
    assert(copied.id == "l.csv" && copied.description == "d" && copied.columnNames == List("a", "b"))
    assert(t.copy(id = "m.csv").rows.forall(_.isInstanceOf[IndexedSeq[_]]))
  }

  test("generators are deterministic in their seed") {
    val again = Small.tus()
    assert(again.train.map(p => (p.t1, p.t2, p.label(0))) == tus.train.map(p => (p.t1, p.t2, p.label(0))))
  }
}

object GeneratorsSpec {

  /** Each generator at the small size these tests use. */
  object Small {
    def tus(): Benchmark = TusSantos.generate(seed = 5, perSeed = 6, nPairs = 300)
    def wikiLake(): WikiLake.Lake =
      WikiLake.generate(seed = 5, nClasses = 8, entitiesPerClass = 120, schemasPerClass = 4, tablesPerSchema = 3)
    def wikiUnion(lake: WikiLake.Lake): Benchmark = WikiUnion.generate(lake, seed = 5, nPairs = 300)
    def wikiJaccard(lake: WikiLake.Lake): Benchmark = WikiJoin.generateJaccard(lake, seed = 5, nPairs = 200)
    def wikiContainment(lake: WikiLake.Lake): Benchmark = WikiJoin.generateContainment(lake, seed = 5, nPairs = 200)
    def ecbUnion(): Benchmark = EcbUnion.generate(seed = 5, nDatasets = 4, nPairs = 250)
    def ecbJoin(): Benchmark = EcbJoin.generate(seed = 5, nDatasets = 12)
    def spider(): Benchmark = SpiderOpenData.generate(seed = 5, nBaseTables = 30)
    def ckan(): Benchmark = CkanSubset.generate(seed = 5, nBaseTables = 25)

    /** All eight, in Table 2 order; the three Wiki tasks share one lake. */
    def suite(): Seq[Benchmark] = {
      val lake = wikiLake()
      Seq(tus(), wikiUnion(lake), ecbUnion(), wikiJaccard(lake), wikiContainment(lake), spider(), ecbJoin(), ckan())
    }
  }
}
