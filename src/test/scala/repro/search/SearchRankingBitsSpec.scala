package repro.search

import repro.SparkSpec
import repro.core.TableSketcher
import repro.lake.LakeTable
import repro.lakebench.{TusSantos, WikiLake}

/** Pins every search method's exact top-k lists on a small fixed lake, so
  * a rewrite of the scoring or ranking code must keep every score and
  * every tie-break. The lake mixes Wiki tables (join queries) and
  * TUS-SANTOS tables (union queries), holds an exact copy of one table
  * under a new id (ties on every method) and a zero-column table. Each
  * method's results are pinned by the SHA-256 of their rendering (first 16
  * hex digits); a mismatch prints the lists.
  */
class SearchRankingBitsSpec extends SparkSpec {

  private lazy val wiki = WikiLake.generate(seed = 5, nClasses = 3, entitiesPerClass = 60,
                                            schemasPerClass = 2, tablesPerSchema = 2).lakeTables
  private lazy val tus = TusSantos.generate(seed = 3, perSeed = 2, nPairs = 10).tables

  private lazy val twinOf: LakeTable = wiki.toSeq.minBy(_._1)._2
  private lazy val tables: Map[String, LakeTable] = {
    val twin  = twinOf.copy(id = s"${twinOf.id}-copy")
    val empty = LakeTable("no_cols.csv", "", Seq.empty, Seq(Seq.empty, Seq.empty))
    wiki ++ tus + (twin.id -> twin) + (empty.id -> empty)
  }
  private lazy val sketches = TableSketcher.sketchCorpus(tables)

  private lazy val joinQueries: Seq[(String, Int)] = {
    val ids = wiki.keys.toSeq.sorted.take(4)
    ids.map(_ -> 0) ++ Seq(ids.head -> 1).filter { case (t, c) => c < tables(t).numCols }
  }
  private lazy val unionQueries: Seq[String] =
    twinOf.id +: (tus.keys.toSeq.sorted.take(4) ++ wiki.keys.toSeq.sorted.slice(1, 3))

  private def render(res: Map[String, Seq[String]]): String =
    res.toSeq.sortBy(_._1).map { case (q, ids) => s"$q:${ids.mkString(",")}" }.mkString(";")

  private def digest(s: String): String =
    java.security.MessageDigest.getInstance("SHA-256").digest(s.getBytes("UTF-8"))
      .take(8).map(b => f"${b & 0xff}%02x").mkString

  private val methods: Seq[(String, Int => Map[String, Seq[String]])] = Seq(
    "TabSketchFM join"  -> (k =>
      JoinSearch.searchEmbeddings(spark, JoinSearch.embeddingsDf(spark, sketches, tables), joinQueries, k)),
    "LSHForest"         -> (k => JoinSearch.searchLsh(sketches, joinQueries, k)),
    "JOSIE"             -> (k => JoinSearch.searchJosie(tables, joinQueries, k)),
    "EmbedJoin"         -> (k => JoinSearch.searchEmbedJoin(tables, joinQueries, k)),
    "TabSketchFM union" -> (k => UnionSearch.searchEmbeddings(sketches, tables, unionQueries, k)),
    "D3L"               -> (k => UnionSearch.searchD3L(sketches, unionQueries, k)),
    "SANTOS"            -> (k => UnionSearch.searchSantos(sketches, unionQueries, k)),
    "Starmie"           -> (k => UnionSearch.searchStarmie(tables, unionQueries, k)),
  )

  // (method, k) -> digest of the rendered lists, taken before the scoring
  // and ranking helpers were shared. k = 0 stands for "the whole lake + 2".
  private val expected: Map[(String, Int), String] = Map(
    ("TabSketchFM join", 3) -> "3e6973d5c25215ff",
    ("TabSketchFM join", 0) -> "92ad87525d625d9e",
    ("LSHForest", 3) -> "a016b320d547e669",
    ("LSHForest", 0) -> "6262cb4891cf13d6",
    ("JOSIE", 3) -> "90698c6570233e68",
    ("JOSIE", 0) -> "546284d84c26f52b",
    ("EmbedJoin", 3) -> "c9627fad44af98d0",
    ("EmbedJoin", 0) -> "978a227fb1426992",
    ("TabSketchFM union", 3) -> "28594c4d891a9a31",
    ("TabSketchFM union", 0) -> "4a0c73eb65f5325d",
    ("D3L", 3) -> "565651aab858e096",
    ("D3L", 0) -> "6fa7c3449a28ffe4",
    ("SANTOS", 3) -> "fe9a9403cdaa00bc",
    ("SANTOS", 0) -> "296294936c63946f",
    ("Starmie", 3) -> "e80630949922b269",
    ("Starmie", 0) -> "b67e12125dcba8a5",
  )

  for ((method, run) <- methods; k <- Seq(3, 0)) {
    test(s"$method top-k lists keep their exact order (k = ${if (k == 0) "lake + 2" else k})") {
      val got = render(run(if (k == 0) tables.size + 2 else k))
      assert(expected.get((method, k)).contains(digest(got)), s"${digest(got)} $got")
    }
  }

  test("the pinned lake has ties and a zero-column table") {
    assert(tables.size == wiki.size + tus.size + 2)
    val q = unionQueries(1)
    val whole = UnionSearch.searchD3L(sketches, Seq(q), tables.size)(q)
    assert(whole.indexOf(s"${twinOf.id}-copy") == whole.indexOf(twinOf.id) + 1, "tie broken by table id")
    assert(whole.size == tables.size - 2 && !whole.contains("no_cols.csv"))
  }
}
