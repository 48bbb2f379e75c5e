package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropCheck

class SimilaritySpec extends AnyFunSuite {

  import Similarity._

  test("rangeOverlap is 1 on a point hull, 0 on disjoint ranges, else intersection over hull") {
    assert(rangeOverlap(3.0, 3.0, 3.0, 3.0) == 1.0)
    assert(rangeOverlap(0.0, 1.0, 2.0, 3.0) == 0.0)
    assert(rangeOverlap(2.0, 3.0, 0.0, 1.0) == 0.0)
    assert(rangeOverlap(0.0, 2.0, 1.0, 3.0) == 1.0 / 3)
    assert(rangeOverlap(0.0, 4.0, 1.0, 2.0) == 0.25)
  }

  test("relDiff is in [0, 1], symmetric, and 0 on equal inputs") {
    val value = Gen.frequency(
      4 -> Gen.choose(-1e6, 1e6),
      1 -> Gen.oneOf(0.0, -0.0, 1e-12, -1e-12, Double.MaxValue, -Double.MaxValue, Double.MinPositiveValue))
    PropCheck.check(Prop.forAllNoShrink(value, value) { (u, v) =>
      val d = relDiff(u, v)
      d >= 0.0 && d <= 1.0 && d == relDiff(v, u) && relDiff(u, u) == 0.0
    })
    assert(relDiff(1.0, -1.0) == 1.0)
    assert(relDiff(100.0, 75.0) == 0.25)
  }

  test("bestMatch keeps each x's best score and gives zeros against an empty ys") {
    assert(bestMatch(Seq(1, 2, 3), Seq.empty[Int])((_, _) => 5.0) == Seq(0.0, 0.0, 0.0))
    assert(bestMatch(Seq.empty[Int], Seq(1, 2))((_, _) => 5.0).isEmpty)
    assert(bestMatch(Seq(1, 10), Seq(2, 7, 9))((x, y) => -math.abs(x - y).toDouble) == Seq(-1.0, -1.0))
  }

  test("summaries of no scores are 0") {
    assert(max(Seq.empty) == 0.0 && topMean(Seq.empty, 3) == 0.0 && fracAbove(Seq.empty, 0.5) == 0.0)
    assert(max(Seq(0.2, 0.9, 0.4)) == 0.9)
    assert(topMean(Seq(1.0, 5.0, 3.0, 4.0), 3) == 4.0)
    assert(topMean(Seq(2.0, 4.0), 3) == 3.0)
    assert(fracAbove(Seq(0.1, 0.9, 0.5, 0.7), 0.5) == 0.5)
  }

  test("cosine runs over the common prefix") {
    assert(cosine(Array(1.0, 2.0, 3.0), Array(4.0, 5.0)) == 14.0)
    assert(cosine(Array(4.0, 5.0), Array(1.0, 2.0, 3.0)) == 14.0)
    assert(cosine(Array.empty, Array(1.0)) == 0.0)
  }

  // Join search ranks cosines with `>` and `math.max` in its partitions and
  // with `Ranking`'s order on the driver; the two agree only without NaN and -0.0.
  test("cosine of vectors with entries in [-1, 1] is never NaN or -0.0") {
    val entry = Gen.frequency(3 -> Gen.choose(-1.0, 1.0), 2 -> Gen.oneOf(0.0, -0.0), 1 -> Gen.oneOf(1.0, -1.0))
    val vec = Gen.choose(0, 8).flatMap(n => Gen.listOfN(n, entry).map(_.toArray))
    val negZero = java.lang.Double.doubleToRawLongBits(-0.0)
    PropCheck.check(Prop.forAllNoShrink(vec, vec) { (a, b) =>
      val c = cosine(a, b)
      !c.isNaN && java.lang.Double.doubleToRawLongBits(c) != negZero
    })
  }
}
