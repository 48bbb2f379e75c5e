package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropCheck
import repro.lake.LakeTable

class TableSketcherSpec extends AnyFunSuite {

  private val table = LakeTable(
    "t1.csv", "residential property prices",
    Seq("city", "price", "date"),
    Seq(
      Seq("Vienna", "100", "2020-01-01"),
      Seq("Graz", "250", "2020-02-01"),
      Seq("Linz", "175", "2020-03-01"),
      Seq("Vienna", null, "2020-04-01"),
    ))

  private val sk = TableSketcher.sketch(table)

  test("one column sketch per column, positions in order") {
    assert(sk.columns.map(_.name) == Seq("city", "price", "date"))
    assert(sk.columns.map(_.position) == Seq(0, 1, 2))
  }

  test("types are inferred per column") {
    assert(sk.columns.map(_.colType) == Seq("string", "int", "date"))
  }

  test("row and null counts") {
    assert(sk.rowCount == 4)
    assert(sk.columns(0).nullCount == 0)
    assert(sk.columns(1).nullCount == 1)
    assert(sk.columns(0).rowCount == 4)
  }

  test("distinct counts ignore nulls") {
    assert(sk.columns(0).distinctCount == 3) // Vienna, Graz, Linz
    assert(sk.columns(1).distinctCount == 3)
  }

  test("numerical sketch of the int column") {
    val n = sk.columns(1).numeric
    assert(math.abs(n(0) - 175.0) < 1e-9) // mean of 100,250,175
    assert(n(2) == 100.0 && n(3) == 250.0) // min, max
    assert(sk.columns(1).isNumeric)
  }

  test("string columns get NaN numerical sketch but have width") {
    assert(!sk.columns(0).isNumeric)
    assert(sk.columns(0).avgWidth > 3)
  }

  test("date column numeric values are monotone-coded") {
    val n = sk.columns(2).numeric
    assert(n(3) > n(2)) // max date later than min date
  }

  test("string columns carry a token MinHash; numeric columns do not") {
    assert(sk.columns(0).tokenMinHash.nonEmpty)
    assert(sk.columns(1).tokenMinHash.isEmpty)
    assert(sk.columns(2).tokenMinHash.isEmpty)
  }

  test("value MinHash matches a directly computed signature over distincts") {
    val expect = TableSketcher.minhash.signature(Seq("Vienna", "Graz", "Linz"))
    assert(sk.columns(0).valueMinHash.sameElements(expect))
  }

  test("content snapshot hashes distinct row strings") {
    assert(sk.distinctRowCount == 4)
    val rows = table.rows.map(TableSketcher.rowString)
    assert(rows.head == "Vienna 100 2020-01-01")
    assert(sk.contentMinHash.sameElements(TableSketcher.minhash.signature(rows)))
  }

  test("null cells render as empty in row strings") {
    assert(TableSketcher.rowString(Seq("a", null, "b")) == "a  b")
  }

  test("identical tables have identical sketches; different content differs") {
    val sk2 = TableSketcher.sketch(table.copy(id = "other"))
    assert(sk2.columns(0).valueMinHash.sameElements(sk.columns(0).valueMinHash))
    val skDiff = TableSketcher.sketch(
      table.copy(rows = table.rows.map(_.updated(0, "Salzburg"))))
    assert(!skDiff.columns(0).valueMinHash.sameElements(sk.columns(0).valueMinHash))
  }

  test("duplicate rows collapse in distinctRowCount") {
    val dup = table.copy(rows = table.rows ++ table.rows)
    val skDup = TableSketcher.sketch(dup)
    assert(skDup.rowCount == 8)
    assert(skDup.distinctRowCount == 4)
    assert(skDup.contentMinHash.sameElements(sk.contentMinHash))
  }

  test("finite values whose sums overflow sketch a finite mean and std") {
    val big = TableSketcher.sketchColumn("v", 0, Seq("1e308", "1e308", "1.7e308")).numeric
    assert(big.forall(_.isFinite), big.mkString(", "))
    assert(math.abs(big(0) / 1.2333333333333333e308 - 1) < 1e-12)
    assert(math.abs(big(1) / (math.sqrt((2 * 0.2333333333333333 * 0.2333333333333333 +
      0.4666666666666667 * 0.4666666666666667) / 3) * 1e308) - 1) < 1e-12)
    val wide = TableSketcher.sketchColumn("v", 0, Seq("-1e308", "1e308", "5")).numeric
    assert(wide.forall(_.isFinite), wide.mkString(", "))
    assert(wide(0) == 5.0 / 3, "a finite sum keeps its mean")
    assert(math.abs(wide(1) / (math.sqrt(2.0 / 3) * 1e308) - 1) < 1e-12)
  }

  /** `NumericalSketch.of` before overflowing sums were rescaled. */
  private def plainOf(values: Seq[Double]): Array[Double] = {
    val n      = values.length
    val sorted = values.sorted
    val mean   = values.sum / n
    val varr   = values.map(v => (v - mean) * (v - mean)).sum / n
    def pct(p: Double): Double = sorted(math.min(n - 1, math.max(0, (p * (n - 1)).round.toInt)))
    Array(mean, math.sqrt(varr), sorted.head, sorted.last,
          pct(0.10), pct(0.25), pct(0.50), pct(0.75), pct(0.90))
  }

  test("NumericalSketch.of keeps the plain sums' bits unless finite values overflow them") {
    val value = Gen.frequency(
      8 -> Gen.choose(-1e6, 1e6),
      2 -> Gen.oneOf(0.0, -0.0, 1.0, -1.0, 4.9e-324, 1e300, -1e300),
      1 -> Gen.choose(-Double.MaxValue, Double.MaxValue),
      1 -> Gen.oneOf(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity),
    )
    def bits(xs: Array[Double]) = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
    var rescaled = 0
    PropCheck.check(Prop.forAllNoShrink(Gen.nonEmptyListOf(value)) { vs =>
      val plain = plainOf(vs)
      val got = NumericalSketch.of(vs)
      if (vs.forall(_.isFinite) && !(plain(0).isFinite && plain(1).isFinite)) {
        rescaled += 1
        got.forall(_.isFinite) && bits(got).drop(2) == bits(plain).drop(2)
      } else bits(got) == bits(plain)
    }, minSuccessful = 500)
    assert(rescaled > 10, s"only $rescaled columns overflowed")
  }
}
