package repro.search

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{MinHash, Similarity, TableSketcher}
import repro.lake.LakeTable

/** Pure (no SparkSession) properties of the search embeddings. */
class EmbeddingsSpec extends AnyFunSuite {

  private def sketch(id: String, names: Seq[String], rows: Seq[Seq[String]]) =
    TableSketcher.sketch(LakeTable(id, "", names, rows))

  private val cities = sketch("c", Seq("city", "pop"),
    (1 to 40).map(i => Seq(s"Riverdale $i", (1000 + i).toString)))

  test("column embeddings are unit-norm and fixed-dimension") {
    val s = cities
    val t = LakeTable("c", "", Seq("city", "pop"), (1 to 40).map(i => Seq(s"Riverdale $i", (1000 + i).toString)))
    val e0 = Embeddings.column(s.columns(0), t.column(0), new Array[Double](MinHash.DefaultK))
    val e1 = Embeddings.column(s.columns(1), t.column(1), new Array[Double](MinHash.DefaultK))
    assert(e0.length == e1.length)
    assert(math.abs(math.sqrt(e0.map(v => v * v).sum) - 1.0) < 1e-9)
  }

  test("identical columns embed identically") {
    val t = LakeTable("c", "", Seq("city", "pop"), (1 to 40).map(i => Seq(s"Riverdale $i", (1000 + i).toString)))
    val a = Embeddings.column(cities.columns(0), t.column(0), new Array[Double](MinHash.DefaultK))
    val b = Embeddings.column(cities.columns(0), t.column(0), new Array[Double](MinHash.DefaultK))
    assert(a.sameElements(b))
  }

  test("string and numeric columns are pushed apart by the type flag") {
    val t = LakeTable("c", "", Seq("city", "pop"), (1 to 40).map(i => Seq(s"Riverdale $i", (1000 + i).toString)))
    val str = Embeddings.column(cities.columns(0), t.column(0), new Array[Double](MinHash.DefaultK))
    val num = Embeddings.column(cities.columns(1), t.column(1), new Array[Double](MinHash.DefaultK))
    assert(Similarity.cosine(str, num) < 0.5)
  }

  test("value-overlapping columns beat disjoint ones") {
    val t1 = LakeTable("x", "", Seq("c"), (1 to 50).map(i => Seq(s"val$i")))
    val t2 = LakeTable("y", "", Seq("c"), (26 to 75).map(i => Seq(s"val$i")))
    val t3 = LakeTable("z", "", Seq("c"), (1 to 50).map(i => Seq(s"other$i")))
    val e1 = Embeddings.column(TableSketcher.sketch(t1).columns(0), t1.column(0), new Array[Double](MinHash.DefaultK))
    val e2 = Embeddings.column(TableSketcher.sketch(t2).columns(0), t2.column(0), new Array[Double](MinHash.DefaultK))
    val e3 = Embeddings.column(TableSketcher.sketch(t3).columns(0), t3.column(0), new Array[Double](MinHash.DefaultK))
    assert(Similarity.cosine(e1, e2) > Similarity.cosine(e1, e3))
  }

  test("tableContext is unit-scaled and shared-lexicon tables are closer") {
    // Small lexicons so the shared tokens dominate the token MinHash.
    val lexA = Seq("kavemo", "rovasel", "mokand")
    val a = sketch("a", Seq("n"), (0 until 30).map(i => Seq(s"${lexA(i % 3)} Works")))
    val b = sketch("b", Seq("n"), (0 until 30).map(i => Seq(s"${lexA(i % 3)} Mills")))
    val c = sketch("c", Seq("n"), (0 until 30).map(i => Seq(s"zulgor Bridge ${i % 3}")))
    val (ca, cb, cc) = (Embeddings.tableContext(a), Embeddings.tableContext(b), Embeddings.tableContext(c))
    def dot(x: Array[Double], y: Array[Double]) = x.zip(y).map { case (u, v) => u * v }.sum
    assert(dot(ca, cb) > dot(ca, cc))
  }

  test("tableContext of an all-numeric table is the zero vector") {
    val n = sketch("n", Seq("v"), (1 to 20).map(i => Seq(i.toString)))
    assert(Embeddings.tableContext(n).forall(_ == 0.0))
  }

  test("table embeddings rank same-domain tables first") {
    def mk(id: String, name: String, lo: Int) =
      LakeTable(id, "", Seq(s"${name}_id", s"${name}_qty"),
        (lo to lo + 30).map(i => Seq(s"$name-$i", (i * 2).toString)))
    val a = mk("a", "vessel", 1); val b = mk("b", "vessel", 20); val c = mk("c", "permit", 1)
    def emb(t: LakeTable) = Embeddings.table(TableSketcher.sketch(t), t)
    assert(Similarity.cosine(emb(a), emb(b)) > Similarity.cosine(emb(a), emb(c)))
  }

  test("a zero-column table embeds to the usual length") {
    val empty = LakeTable("e", "", Seq.empty, Seq.empty)
    val t = LakeTable("c", "", Seq("city"), (1 to 10).map(i => Seq(s"c$i")))
    val e = Embeddings.table(TableSketcher.sketch(empty), empty)
    assert(e.length == Embeddings.table(TableSketcher.sketch(t), t).length)
    assert(e.forall(v => !v.isNaN))
  }
}
