package repro.models

import org.scalatest.funsuite.AnyFunSuite

class ResampleSpec extends AnyFunSuite {
  import ValueFeaturizer.resampleBag

  private val big = (1 to 40).map(i => s"t$i" -> (i % 7 + 1)).toMap

  test("bags within budget pass through unchanged") {
    assert(resampleBag(big, 10000, seed = 1) eq big)
    assert(resampleBag(big, 0, seed = 1) eq big, "0 disables the budget")
  }

  test("resampled bags have exactly the budgeted total") {
    val r = resampleBag(big, 50, seed = 2)
    assert(r.values.sum == 50)
  }

  test("resampling only produces tokens from the original support") {
    val r = resampleBag(big, 30, seed = 3)
    assert(r.keySet.subsetOf(big.keySet))
  }

  test("resampling is deterministic in the seed") {
    assert(resampleBag(big, 40, seed = 4) == resampleBag(big, 40, seed = 4))
    assert(resampleBag(big, 40, seed = 4) != resampleBag(big, 40, seed = 5))
  }

  test("resampling approximately preserves the distribution") {
    val skew = Map("hot" -> 900, "cold" -> 100)
    val r = resampleBag(skew, 200, seed = 6)
    val hotFrac = r.getOrElse("hot", 0).toDouble / 200
    assert(hotFrac > 0.8 && hotFrac < 1.0, s"hot fraction $hotFrac")
  }

  test("sampling noise decorrelates exact count containment") {
    // a is a sub-bag of bPos; bNeg is an independent draw of the same
    // distribution. After resampling, the cosine gap between (a, bPos)
    // and (a, bNeg) should shrink markedly vs the exact-bag gap.
    val rng = new scala.util.Random(7)
    def draw(n: Int): Map[String, Int] =
      repro.core.Tokenizer.bag((0 until n).map(_ => s"v${rng.nextInt(40)}"))
    def merge(x: Map[String, Int], y: Map[String, Int]) =
      (x.keySet ++ y.keySet).map(k => k -> (x.getOrElse(k, 0) + y.getOrElse(k, 0))).toMap
    // Cosine of the exact count vectors (no bag here is empty).
    def cos(x: Map[String, Int], y: Map[String, Int]) = {
      def norm(b: Map[String, Int]) = math.sqrt(b.valuesIterator.map(c => c.toDouble * c).sum)
      x.iterator.map { case (t, c) => c.toDouble * y.getOrElse(t, 0) }.sum / (norm(x) * norm(y))
    }

    val gaps = (0 until 30).map { i =>
      val a = draw(400); val rest = draw(800); val bPos = merge(a, rest); val bNeg = merge(draw(400), draw(800))
      val exactGap = cos(a, bPos) - cos(a, bNeg)
      val rs = (m: Map[String, Int], s: Int) => resampleBag(m, 256, seed = i * 10 + s)
      val sampledGap = cos(rs(a, 0), rs(bPos, 1)) - cos(rs(a, 0), rs(bNeg, 2))
      (exactGap, sampledGap)
    }
    val meanExact   = gaps.map(_._1).sum / gaps.size
    val meanSampled = gaps.map(_._2).sum / gaps.size
    assert(meanSampled < meanExact, s"sampled $meanSampled vs exact $meanExact")
  }
}
