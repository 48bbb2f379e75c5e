package repro

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.Assertions

/** Runs scalacheck properties inside scalatest suites, from a fixed seed so
  * every run draws the same cases.
  */
object PropCheck extends Assertions {

  def check(prop: Prop, minSuccessful: Int = 300): Unit = {
    val params = Test.Parameters.default
      .withMinSuccessfulTests(minSuccessful)
      .withInitialSeed(Seed(20240917L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result, Pretty.Params(2)))
  }

  /** Strings that stress a char-level hash or split: empty, odd and even
    * lengths, ASCII, Latin-1 and CJK letters, separators, valid surrogate
    * pairs and lone surrogates.
    */
  val awkwardString: Gen[String] = {
    val piece = Gen.frequency(
      5 -> Gen.alphaNumChar.map(_.toString),
      2 -> Gen.oneOf(" ", "-", "_", ".", "/", "\t"),
      2 -> Gen.oneOf("é", "È", "ß", "ñ", "中", "\u212A", "\u0130"),
      1 -> Gen.oneOf("😀", "\uD800", "\uDFFF", "\u0000"),
      1 -> Gen.choose(Char.MinValue, Char.MaxValue).map(_.toString),
    )
    Gen.frequency(1 -> Gen.const(""), 9 -> Gen.choose(1, 40).flatMap(n => Gen.listOfN(n, piece).map(_.mkString)))
  }
}
