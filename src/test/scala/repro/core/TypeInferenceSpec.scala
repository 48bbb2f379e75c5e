package repro.core

import org.scalatest.funsuite.AnyFunSuite

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

  test("numericValue respects inferred type") {
    assert(numericValue("5", IntT).contains(5.0))
    assert(numericValue("2020-01-01", DateT).isDefined)
    assert(numericValue("5", StringT).isEmpty)
    assert(numericValue("abc", FloatT).isEmpty)
  }
}
