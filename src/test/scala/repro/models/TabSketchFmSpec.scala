package repro.models

import org.scalatest.funsuite.AnyFunSuite

import repro.core.TableSketcher
import repro.lake.LakeTable

class TabSketchFmSpec extends AnyFunSuite {

  private def mkTable(id: String, names: Seq[String], rows: Seq[Seq[String]]) =
    TableSketcher.sketch(LakeTable(id, "", names, rows))

  private val base = mkTable("base", Seq("city", "pop"),
    (1 to 60).map(i => Seq(s"city$i", (1000 + i * 10).toString)))
  private val same = mkTable("same", Seq("city", "pop"),
    (1 to 60).map(i => Seq(s"city$i", (1000 + i * 10).toString)))
  private val disjoint = mkTable("disj", Seq("nation", "gdp"),
    (1 to 60).map(i => Seq(s"country$i", (900000 + i * 37).toString)))

  test("feature vector has the documented fixed length") {
    assert(TabSketchFm.features(base, same).length == TabSketchFm.Dim)
    assert(TabSketchFm.Dim ==
      TabSketchFm.HeaderDim + TabSketchFm.MinhashDim + TabSketchFm.NumDim + TabSketchFm.ContentDim)
  }

  test("identical tables score maximal minhash/content similarity") {
    val f = TabSketchFm.features(base, same)
    val mh = f.slice(TabSketchFm.HeaderDim, TabSketchFm.HeaderDim + TabSketchFm.MinhashDim)
    assert(mh(0) == 1.0, "max value-jaccard")
    val content = f.takeRight(TabSketchFm.ContentDim)
    assert(content(0) == 1.0, "content jaccard")
  }

  test("disjoint tables score near-zero minhash similarity") {
    val f = TabSketchFm.features(base, disjoint)
    val mh = f.slice(TabSketchFm.HeaderDim, TabSketchFm.HeaderDim + TabSketchFm.MinhashDim)
    assert(mh(0) < 0.2, s"max value-jaccard ${mh(0)}")
  }

  test("masking zeroes exactly the disabled group") {
    val full = TabSketchFm.features(base, same)
    val noMh = SketchMask(minhash = false)(full)
    val h = TabSketchFm.HeaderDim; val m = TabSketchFm.MinhashDim
    assert(noMh.slice(h, h + m).forall(_ == 0.0))
    assert(full.slice(h, h + m).exists(_ != 0.0), "input vector unchanged")
    assert(noMh.take(h).sameElements(full.take(h)), "header group unaffected")
    assert(noMh.drop(h + m).sameElements(full.drop(h + m)), "later groups unaffected")
  }

  test("only-X masks keep exactly header + that group") {
    val f = SketchMask(minhash = false, content = false)(TabSketchFm.features(base, same))
    val h = TabSketchFm.HeaderDim; val m = TabSketchFm.MinhashDim; val n = TabSketchFm.NumDim
    assert(f.slice(h, h + m).forall(_ == 0.0), "minhash zeroed")
    assert(f.drop(h + m + n).forall(_ == 0.0), "content zeroed")
    assert(f.slice(h + m, h + m + n).exists(_ != 0.0), "numerical present")
  }

  test("features are symmetric enough: f(a,b) similarity blocks match f(b,a)") {
    val fab = TabSketchFm.features(base, disjoint)
    val fba = TabSketchFm.features(disjoint, base)
    // max-jaccard and content jaccard are symmetric by construction
    assert(fab(TabSketchFm.HeaderDim) == fba(TabSketchFm.HeaderDim))
    assert(fab.takeRight(3)(0) == fba.takeRight(3)(0))
  }

  test("numeric range containment detects subset relationships") {
    val sub = mkTable("sub", Seq("x"), (20 to 40).map(i => Seq(i.toString)))
    val sup = mkTable("sup", Seq("x"), (1 to 60).map(i => Seq(i.toString)))
    val f = TabSketchFm.features(sub, sup)
    val numeric = f.slice(TabSketchFm.HeaderDim + TabSketchFm.MinhashDim,
                          TabSketchFm.HeaderDim + TabSketchFm.MinhashDim + TabSketchFm.NumDim)
    assert(numeric(2) == 1.0, "all of sub's ranges inside sup's")
    assert(numeric(3) == 0.0, "sup's range not inside sub's")
  }

  test("token minhash rewards shared vocabulary without shared values") {
    val names = Vector("Oak", "Elm", "Ash", "Fir", "Yew", "Ivy")
    val streetsA = mkTable("sa", Seq("addr"), names.map(n => Seq(s"North $n Street")))
    val streetsB = mkTable("sb", Seq("addr"), names.map(n => Seq(s"South $n Avenue")))
    val f = TabSketchFm.features(streetsA, streetsB)
    val mh = f.slice(TabSketchFm.HeaderDim, TabSketchFm.HeaderDim + TabSketchFm.MinhashDim)
    // No full cell value is shared, but 6 of 10 tokens are.
    assert(mh(0) < 0.05, s"value minhash ${mh(0)} should be ~0")
    assert(mh(9) > 0.3, s"token minhash max ${mh(9)} should see the shared names")
  }

  test("content containment detects row subsets") {
    val rows = (1 to 80).map(i => Seq(s"r$i", (i * 3).toString))
    val part = mkTable("part", Seq("a", "b"), rows.take(20))
    val whole = mkTable("whole", Seq("a", "b"), rows)
    val f = TabSketchFm.features(part, whole)
    val content = f.takeRight(TabSketchFm.ContentDim)
    assert(content(1) > 0.7, s"containment(part in whole) ${content(1)}")
    assert(content(2) < 0.5, s"containment(whole in part) ${content(2)}")
  }

  test("columns of finite values whose sums overflow give finite features") {
    val huge = mkTable("huge", Seq("v"), Seq("1e308", "1e308", "1.7e308").map(Seq(_)))
    val wide = mkTable("wide", Seq("v"), Seq("-1e308", "1e308", "5").map(Seq(_)))
    for ((a, b) <- Seq((huge, wide), (wide, huge), (huge, base), (base, wide))) {
      val f = TabSketchFm.features(a, b)
      assert(f.forall(_.isFinite), s"${a.tableId} vs ${b.tableId}: ${f.indices.filterNot(i => f(i).isFinite)}")
    }
  }
}
