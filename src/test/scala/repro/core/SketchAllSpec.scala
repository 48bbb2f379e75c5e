package repro.core

import repro.SparkSpec
import repro.lake.LakeTable

/** `sketchAll` and `sketchCorpus` both map `TableSketcher.sketch` over the
  * tables on the `Parallel` pool; `sketchAll` then hands the sketches to
  * Spark as a local `Dataset`. Every field of every sketch either returns
  * must equal the local sketch, the floating-point fields bit for bit, and
  * `sketchAll` must run no program function inside Spark.
  */
class SketchAllSpec extends SparkSpec {

  private val tables = Seq(
    LakeTable("a.csv", "quantities by name", Seq("name", "qty"),
      Seq(Seq("x", "1"), Seq("y", "2"), Seq("y", "3"), Seq(null, "4"))),
    LakeTable("b.csv", "", Seq("name", "qty"),
      Seq(Seq("x", "10"), Seq("z", "20.5"))),
    // Blank cells, an all-null column, numbers mixed with text, and a date
    // column with blank and null cells.
    LakeTable("odd.csv", "blank, null and mixed cells", Seq("blank", "nothing", "mixed", "day"),
      Seq(Seq("", null, "12", "2021-03-04"),
          Seq("  ", null, "n/a", " "),
          Seq("x y", null, "7.5", "2021-03-09"),
          Seq("", null, "seven", null),
          Seq("", null, "-3", "2021-03-04"))),
    LakeTable("no_rows.csv", "", Seq("a", "b"), Seq.empty),
    LakeTable("no_cols.csv", "a header-less table", Seq.empty, Seq(Seq.empty, Seq.empty)),
  )

  /** A sketch as nested lists with every double and array replaced by its
    * raw bits, so `==` compares all fields exactly.
    */
  private def exact(x: Any): Any = x match {
    case d: Double          => java.lang.Double.doubleToRawLongBits(d)
    case xs: Array[Double]  => xs.toList.map(java.lang.Double.doubleToRawLongBits)
    case xs: Array[Long]    => xs.toList
    case xs: Seq[_]         => xs.toList.map(exact)
    case p: Product         => p.productPrefix :: p.productIterator.map(exact).toList
    case other              => other
  }

  test("sketchAll returns exactly the local sketch of every table") {
    val dist = TableSketcher.sketchAll(spark, tables).collect()
    assert(dist.map(_.tableId).toSeq == tables.map(_.id))
    for ((s, t) <- dist.zip(tables)) assert(exact(s) == exact(TableSketcher.sketch(t)), t.id)
  }

  test("sketchAll starts no Spark job") {
    assert(sparkJobsDuring(TableSketcher.sketchAll(spark, tables).collect()) == 0)
  }

  test("sketchAll's plan is a local relation of finished sketches, with no function mapped in Spark") {
    val plan = TableSketcher.sketchAll(spark, tables).queryExecution.analyzed
    // A function mapped in Spark would add MapElements over a DeserializeToObject.
    assert(plan.collect { case p => p.nodeName } == Seq("LocalRelation"))
  }

  test("sketchCorpus returns exactly the local sketch of every table, keyed by id") {
    val corpus = TableSketcher.sketchCorpus(tables.map(t => t.id -> t).toMap)
    assert(corpus.keySet == tables.map(_.id).toSet)
    for (t <- tables) assert(exact(corpus(t.id)) == exact(TableSketcher.sketch(t)), t.id)
    val noCols = corpus("no_cols.csv")
    assert(noCols.columns.isEmpty && noCols.rowCount == 2 && noCols.distinctRowCount == 1)
  }

  test("the odd table is sketched as blank, null, mixed and date columns") {
    val cols = TableSketcher.sketch(tables(2)).columns
    assert(cols.map(_.nullCount) == Seq(4, 5, 0, 2), "blank cells count as missing")
    assert(cols.map(_.distinctCount) == Seq(1, 0, 5, 2))
    assert(cols.take(3).forall(c => c.colType == "string" && !c.isNumeric), "text with a few numbers is text")
    assert(cols(3).colType == "date" && cols(3).isNumeric)
    assert(cols(0).valueMinHash.exists(_ != MinHash.Empty), "the one non-blank cell is hashed")
    assert(cols(1).valueMinHash.forall(_ == MinHash.Empty), "an all-null column hashes nothing")
  }
}
