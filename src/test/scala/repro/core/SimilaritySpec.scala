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

  test("rangeOverlap over ranges whose hull is wider than Double.MaxValue is finite") {
    assert(rangeOverlap(-1.7e308, 1.7e308, -1.7e308, 1.7e308) == 1.0)
    assert(rangeOverlap(-1.7e308, 0.0, 0.0, 1.7e308) == 0.0)
    assert(math.abs(rangeOverlap(-1.7e308, 1.0e308, -1.0e308, 1.7e308) - 1 / 1.7) < 1e-15)
  }

  test("rangeOverlap keeps the plain ratio's bits on a finite hull and is exact to 1e-15 on a wider one") {
    def plain(lo1: Double, hi1: Double, lo2: Double, hi2: Double): Double = {
      val lo = math.max(lo1, lo2); val hi = math.min(hi1, hi2)
      val ulo = math.min(lo1, lo2); val uhi = math.max(hi1, hi2)
      if (uhi - ulo <= 0) 1.0 else math.max(0.0, hi - lo) / (uhi - ulo)
    }
    val end = Gen.frequency(
      4 -> Gen.choose(-1e6, 1e6),
      2 -> Gen.choose(-Double.MaxValue, Double.MaxValue),
      1 -> Gen.oneOf(0.0, -0.0, 1.0, 1e308, -1e308, Double.MaxValue, -Double.MaxValue, Double.MinPositiveValue))
    val range = for (a <- end; b <- end) yield (math.min(a, b), math.max(a, b))
    // Overflowing hulls whose ranges overlap, checked against exact arithmetic.
    var wide = 0
    PropCheck.check(Prop.forAllNoShrink(range, range) { case ((lo1, hi1), (lo2, hi2)) =>
      val got = rangeOverlap(lo1, hi1, lo2, hi2)
      if ((math.max(hi1, hi2) - math.min(lo1, lo2)).isFinite)
        java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(plain(lo1, hi1, lo2, hi2))
      else {
        val inter = BigDecimal(math.min(hi1, hi2)) - BigDecimal(math.max(lo1, lo2))
        if (inter > 0) wide += 1
        val exact = inter.max(0) / (BigDecimal(math.max(hi1, hi2)) - BigDecimal(math.min(lo1, lo2)))
        math.abs(got - exact.toDouble) < 1e-15
      }
    }, minSuccessful = 500)
    assert(wide > 10, s"only $wide overflowing hulls had an overlap")
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
