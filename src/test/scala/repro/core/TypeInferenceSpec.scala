package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropCheck
import TypeInference._

class TypeInferenceSpec extends AnyFunSuite {

  test("integer columns are IntT") {
    assert(infer(Seq("1", "42", "-7", "1000")) == IntT)
  }

  test("float columns are FloatT") {
    assert(infer(Seq("1.5", "2.25", "3")) == FloatT)
  }

  test("ISO date columns are DateT") {
    assert(infer(Seq("2020-01-01", "1999-12-31")) == DateT)
    assert(infer(Seq(" 2020-03-28", "2020-04-01 ")) == DateT, "padded, as padded integers are IntT")
  }

  test("slash date columns are DateT") {
    assert(infer(Seq("28/03/23", "1/1/2020")) == DateT)
  }

  test("mixed and text columns default to StringT") {
    assert(infer(Seq("abc", "1")) == StringT)
    assert(infer(Seq("Austria", "Vienna")) == StringT)
  }

  test("empty / all-null columns default to StringT") {
    assert(infer(Seq.empty) == StringT)
    assert(infer(Seq(null, null, "")) == StringT)
  }

  test("only the first 10 non-null values determine the type") {
    val vals = (1 to 10).map(_.toString) ++ Seq("not-a-number")
    assert(infer(vals) == IntT)
  }

  test("nulls are skipped before sampling") {
    assert(infer(Seq(null, "", "3", "4")) == IntT)
  }

  test("parseDate handles ISO and slash formats, rejects garbage") {
    assert(parseDate("2020-03-28").isDefined)
    assert(parseDate("28/03/23").isDefined)
    assert(parseDate("28/13/23").isEmpty) // month 13
    assert(parseDate("2020-13-01").isEmpty) // month 13
    assert(parseDate("2020-01-45").isEmpty) // day 45
    assert(parseDate("2020-12-31").isDefined)
    assert(parseDate("hello").isEmpty)
    assert(parseDate(null).isEmpty)
    assert(parseDate(" 2020-03-28") == parseDate("2020-03-28"), "trimmed, like parseLong and parseDouble")
    assert(parseDate("28/03/23\t").isDefined && parseDate(" ").isEmpty)
  }

  test("parseDate is monotone in time") {
    val a = parseDate("2020-01-01").get
    val b = parseDate("2020-02-01").get
    val c = parseDate("2021-01-01").get
    assert(a < b && b < c)
  }

  test("slash dates with 2-digit years land in the 2000s") {
    val d1 = parseDate("28/03/23").get
    val d2 = parseDate("2023-03-28").get
    assert(math.abs(d1 - d2) < 1.0)
  }

  test("parseLong / parseDouble behave and trim") {
    assert(parseLong(" 42 ").contains(42L))
    assert(parseLong("4.2").isEmpty)
    assert(parseDouble("4.2").contains(4.2))
    assert(parseDouble("abc").isEmpty)
    assert(parseDouble("NaN").isEmpty, "non-finite values rejected")
    assert(parseLong(null).isEmpty && parseDouble(null).isEmpty)
  }

  test("parseDouble agrees with parsing every string and catching the exception") {
    def old(s: String): Option[Double] =
      if (s == null) None
      else try {
        val d = java.lang.Double.parseDouble(s.trim)
        if (java.lang.Double.isFinite(d)) Some(d) else None
      } catch { case _: NumberFormatException => None }
    val piece = Gen.frequency(
      4 -> Gen.numChar.map(_.toString),
      2 -> Gen.oneOf("+", "-", ".", "e", "E", "e-", "d", "D", "f", "F", "x", "p"),
      2 -> Gen.oneOf(" ", "\t", "\n", "\u0000", "\u00a0", "\u2003"),
      2 -> Gen.oneOf("0x1p3", "0X1.8P-2", "NaN", "Infinity", "-Infinity", ".5", "5.", "1e5", "1e400", "4.9e-325"),
      1 -> Gen.oneOf("\u0663", "\u0967", "\uff11", "\u00b2", "\u0665.5"),
      1 -> PropCheck.awkwardString,
    )
    val input = Gen.frequency(1 -> Gen.const(null), 1 -> PropCheck.awkwardString,
      8 -> Gen.choose(1, 6).flatMap(n => Gen.listOfN(n, piece).map(_.mkString)))
    PropCheck.check(Prop.forAllNoShrink(input) { s =>
      val (a, b) = (parseDouble(s), old(s))
      Prop(a.map(java.lang.Double.doubleToRawLongBits) == b.map(java.lang.Double.doubleToRawLongBits)) :| s"'$s': $a vs $b"
    }, minSuccessful = 5000)
    for (s <- Seq("+.5", "-5.", " 1e5 ", "5d", "5F", "0x1p3", "-0.0", "+-1", "", "+", ".", "NaN", "-Infinity", "\u0663"))
      assert(parseDouble(s).map(java.lang.Double.doubleToRawLongBits) == old(s).map(java.lang.Double.doubleToRawLongBits), s)
  }

  test("numericValue respects inferred type") {
    assert(numericValue("5", IntT).contains(5.0))
    assert(numericValue("2020-01-01", DateT).isDefined)
    assert(numericValue(" 2020-01-01 ", DateT) == parseDate("2020-01-01"))
    assert(numericValue("5", StringT).isEmpty)
    assert(numericValue("abc", FloatT).isEmpty)
  }
}
