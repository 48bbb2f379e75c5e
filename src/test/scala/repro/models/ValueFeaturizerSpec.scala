package repro.models

import org.scalacheck.{Gen, Prop}

import repro.{PropCheck, SparkSpec}
import repro.lake.{LakeTable, Text}

class ValueFeaturizerSpec extends SparkSpec {
  import ValueFeaturizer._

  private val t = LakeTable("t", "series data",
    Seq("area", "value"),
    (1 to 100).map(i => Seq(s"zone ${i % 7}", Text.format("%.1f", i * 1.5))))

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
    assert(PairFeatures.headerFeatures(v.header, v.header)(0) == 1.0)
    assert(PairFeatures.headerFeatures(v.header, v.header).length == PairFeatures.HeaderDim)
  }

  test("valueFeatures: same table scores table-embedding cosine 1") {
    val v = view(t, TaBertBudget)
    val f = valueFeatures(v, v)
    assert(math.abs(f(0) - 1.0) < 1e-9)
    assert(f.length == 6 + PairFeatures.SharedSlots)
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
    assert(f.length == 3)
  }

  test("numericFeatures: no numeric columns gives the neutral vector") {
    val s = LakeTable("s", "", Seq("w"), Seq(Seq("abc"), Seq("def")))
    val f = numericFeatures(view(s, TaBertBudget), view(t, TaBertBudget))
    assert(f.sameElements(Array(0.0, 1.0, 0.0)))
  }

  test("every colStats entry of a column of finite doubles is finite") {
    val value = Gen.frequency(
      4 -> Gen.choose(-1e6, 1e6),
      2 -> Gen.choose(-Double.MaxValue, Double.MaxValue),
      2 -> Gen.oneOf(1e308, 1.7e308, -1.7e308, Double.MaxValue, 4.9e-324, 0.0))
    val column = Gen.choose(1, 12).flatMap(n => Gen.listOfN(n, value))
    val table = Gen.choose(1, 3).flatMap(c => Gen.listOfN(c, column)).map { cols =>
      val rows = cols.map(_.size).max
      LakeTable("p.csv", "", cols.indices.map(i => s"c$i"),
                (0 until rows).map(r => cols.map(col => if (r < col.size) col(r).toString else "")))
    }
    PropCheck.check(Prop.forAllNoShrink(table) { t =>
      view(t, TaBertBudget).colStats.forall(_.forall(_.isFinite))
    })
  }

  test("TUTA's pair vector is finite on columns whose sums and ranges overflow") {
    val probe = LakeTable("probe.csv", "", Seq("v"), Seq(Seq("1e308"), Seq("1e308"), Seq("1.7e308")))
    val negated = LakeTable("negated.csv", "", Seq("v"), Seq(Seq("-1e308"), Seq("-1e308"), Seq("-1.7e308")))
    val pair = Baselines.tuta.prepare(spark, Map(probe.id -> probe, negated.id -> negated))
    for ((a, b) <- Seq(probe -> probe, probe -> negated, negated -> probe)) {
      val f = pair(a.id, b.id)
      assert(f.forall(_.isFinite), s"${a.id} vs ${b.id}: ${f.mkString(", ")}")
    }
  }

  test("budget presets match the baselines' documented windows") {
    assert(TaBertBudget.maxRows == 10000)
    assert(TutaBudget.maxTokens == 256)
    assert(TapasBudget.maxTokens == 512)
    assert(TabbieBudget.maxRows == 30 && TabbieBudget.maxCols == 20)
  }
}
