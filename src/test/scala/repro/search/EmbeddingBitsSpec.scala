package repro.search

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{TableSketch, TableSketcher}
import repro.lake.LakeTable
import repro.lakebench.{TusSantos, WikiLake}

/** Pins the exact bits of the search embeddings: every column and table
  * embedding of two small lakes, the table-context blocks, one value
  * embedding and a few degenerate tables. A rewrite of the embedding code
  * must keep every floating-point operation in the same order. Each group
  * of vectors is pinned by its total length and the SHA-256 of its raw
  * bits (first 16 hex digits), as in `PairFeatureBitsSpec`.
  */
class EmbeddingBitsSpec extends AnyFunSuite {

  /** Tables in id order with their sketches. */
  private def sketched(tables: Map[String, LakeTable]): Seq[(TableSketch, LakeTable)] = {
    val sketches = TableSketcher.sketchCorpus(tables)
    tables.keys.toSeq.sorted.map(id => (sketches(id), tables(id)))
  }

  private lazy val wiki = sketched(WikiLake.generate(seed = 13, nClasses = 6, entitiesPerClass = 150,
                                                     schemasPerClass = 3, tablesPerSchema = 3).lakeTables)
  private lazy val tus = sketched(TusSantos.generate(nPairs = 40).tables)

  private def digest(vs: Seq[Array[Double]]): (Int, String) = {
    val buf = java.nio.ByteBuffer.allocate(8 * vs.map(_.length).sum)
    vs.foreach(_.foreach(x => buf.putLong(java.lang.Double.doubleToRawLongBits(x))))
    val hex = java.security.MessageDigest.getInstance("SHA-256").digest(buf.array())
      .take(8).map(b => f"${b & 0xff}%02x").mkString
    (vs.map(_.length).sum, hex)
  }

  private val allNull = LakeTable("nulls.csv", "", Seq("a", "b"), Seq.fill(5)(Seq(null, "  ")))
  private val blankHeader = LakeTable("blank.csv", "", Seq("", "  ", "id"),
    (0 until 12).map(i => Seq(s"x$i", (i * 7).toString, s"row $i")))
  private val zeroCols = LakeTable("no_cols.csv", "", Seq.empty, Seq(Seq.empty, Seq.empty))

  // (group) -> (total doubles, digest), recorded before the embedding path
  // was rewritten as primitive loops.
  private val expected: Map[String, (Int, String)] = Map(
    "wiki columns" -> (38969, "c87c4270ae0e20cf"),
    "wiki tables" -> (15795, "6c150938bb616428"),
    "wiki contexts" -> (2496, "33414479b38e076f"),
    "tus columns" -> (563732, "599b1a6d2994a887"),
    "tus tables" -> (174960, "61923dc414ef4930"),
    "tus contexts" -> (27648, "baecf74be4473ca0"),
    "value embeddings" -> (48, "b3537e467f5abaab"),
    "degenerate columns" -> (1465, "ebd8350ea5187bca"),
    "degenerate tables" -> (1215, "41336c03947a2a91"),
  )

  private def pin(group: String)(vs: => Seq[Array[Double]]): Unit =
    test(s"$group keep their exact bits") {
      val got = digest(vs)
      assert(expected.get(group).contains(got), s"$group: $got")
    }

  pin("wiki columns")(wiki.flatMap { case (s, t) => Embeddings.columns(s, t) })
  pin("wiki tables")(wiki.map { case (s, t) => Embeddings.table(s, t) })
  pin("wiki contexts")(wiki.map { case (s, _) => Embeddings.tableContext(s) })
  pin("tus columns")(tus.flatMap { case (s, t) => Embeddings.columns(s, t) })
  pin("tus tables")(tus.map { case (s, t) => Embeddings.table(s, t) })
  pin("tus contexts")(tus.map { case (s, _) => Embeddings.tableContext(s) })
  pin("value embeddings")(Seq(Embeddings.valueEmbedder.embed(
    Seq("city", "river", "city", "2023", "river", "city", "ünïcode", ""))))
  pin("degenerate columns")(Seq(allNull, blankHeader, zeroCols).flatMap { t =>
    Embeddings.columns(TableSketcher.sketch(t), t) })
  pin("degenerate tables")(Seq(allNull, blankHeader, zeroCols).map { t =>
    Embeddings.table(TableSketcher.sketch(t), t) })
}
