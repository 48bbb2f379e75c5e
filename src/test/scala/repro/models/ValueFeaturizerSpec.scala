package repro.models

import org.scalatest.funsuite.AnyFunSuite

import repro.lake.LakeTable

class ValueFeaturizerSpec extends AnyFunSuite {
  import ValueFeaturizer._

  private val t = LakeTable("t", "series data",
    Seq("area", "value"),
    (1 to 100).map(i => Seq(s"zone ${i % 7}", f"${i * 1.5}%.1f")))

  test("unbudgeted view sees every row") {
    val v = view(t, Budget(Int.MaxValue, Int.MaxValue, 0))
    assert(v.colBags(0).values.sum == 200) // "zone" + number per cell
    assert(v.header.rowCount == 100)
  }

  test("row budget truncates") {
    val v = view(t, Budget(10, Int.MaxValue, 0))
    assert(v.colBags(0).values.sum == 20)
  }

  test("column budget truncates") {
    val v = view(t, Budget(Int.MaxValue, 1, 0))
    assert(v.colBags.size == 1)
    assert(v.header.nCols == 2, "declared column count still reflects the table")
  }

  test("token budget stops serialization early (headers count first)") {
    val v = view(t, Budget(Int.MaxValue, Int.MaxValue, 12))
    val total = v.colBags.map(_.values.sum).sum
    assert(total <= 12 && total > 0, s"visible tokens $total")
  }

  test("zero-row budget yields header-only view") {
    val v = view(t, Budget(0, Int.MaxValue, 0))
    assert(v.colBags.forall(_.isEmpty))
    assert(v.header.allTokens == Set("area", "value"))
  }

  test("numeric stats computed from visible window only") {
    val all = view(t, Budget(Int.MaxValue, Int.MaxValue, 0))
    assert(math.abs(all.colStats(1)(2) - 150.0) < 1e-9, "max over all rows")
    val few = view(t, Budget(10, Int.MaxValue, 0))
    assert(few.colStats(1)(2) <= 15.01, "max over first 10 rows")
  }

  test("headerFeatures: identical headers score 1 on jaccard") {
    val v = view(t, TaBertBudget)
    assert(headerFeatures(v, v)(0) == 1.0)
    assert(headerFeatures(v, v).length == PairFeatures.HeaderDim)
  }

  test("valueFeatures: same table scores table-embedding cosine 1") {
    val v = view(t, TaBertBudget)
    val f = valueFeatures(v, v)
    assert(math.abs(f(0) - 1.0) < 1e-9)
    assert(f.length == ValueDim)
  }

  test("valueFeatures: disjoint values score low (within JL distortion)") {
    val other = LakeTable("o", "", Seq("x"), (1 to 50).map(i => Seq(s"completelydifferent$i")))
    val f = valueFeatures(view(t, TaBertBudget), view(other, TaBertBudget))
    // JL-projected cosines of disjoint bags are 0 up to projection + bucket
    // collision distortion — clearly below the identical-column value of 1.
    assert(f(0) < 0.6 && f(1) < 0.6, s"${f(0)} / ${f(1)}")
  }

  test("valueFeatures: identical columns still beat disjoint ones clearly") {
    val same = valueFeatures(view(t, TaBertBudget), view(t, TaBertBudget))
    val other = LakeTable("o", "", Seq("x"), (1 to 50).map(i => Seq(s"completelydifferent$i")))
    val diff = valueFeatures(view(t, TaBertBudget), view(other, TaBertBudget))
    assert(same(1) > diff(1) + 0.4, "JL projection preserves large gaps")
  }

  test("numericFeatures: same table matches means and ranges") {
    val v = view(t, TaBertBudget)
    val f = numericFeatures(v, v)
    assert(f(0) == 1.0 && f(1) < 1e-9 && f(2) > 0.99)
    assert(f.length == NumDim)
  }

  test("numericFeatures: no numeric columns gives the neutral vector") {
    val s = LakeTable("s", "", Seq("w"), Seq(Seq("abc"), Seq("def")))
    val f = numericFeatures(view(s, TaBertBudget), view(t, TaBertBudget))
    assert(f.sameElements(Array(0.0, 1.0, 0.0)))
  }

  test("budget presets match the baselines' documented windows") {
    assert(TaBertBudget.maxRows == 10000)
    assert(TutaBudget.maxTokens == 256)
    assert(TapasBudget.maxTokens == 512)
    assert(TabbieBudget.maxRows == 30 && TabbieBudget.maxCols == 20)
  }
}
