package repro.core

import scala.util.hashing.MurmurHash3

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropCheck

class MinHashSpec extends AnyFunSuite {

  private val mh = MinHash(64)

  test("signature of empty set is all-Empty and isEmpty") {
    val s = mh.signature(Seq.empty)
    assert(s.forall(_ == MinHash.Empty))
    assert(MinHash.isEmpty(s))
  }

  test("signature ignores nulls") {
    assert(mh.signature(Seq(null, "a")).sameElements(mh.signature(Seq("a"))))
  }

  test("signature is order- and duplicate-insensitive") {
    val a = mh.signature(Seq("x", "y", "z"))
    val b = mh.signature(Seq("z", "x", "y", "x", "x"))
    assert(a.sameElements(b))
  }

  test("identical sets estimate jaccard 1") {
    val s = mh.signature(Seq("a", "b", "c"))
    assert(MinHash.jaccard(s, s) == 1.0)
  }

  test("disjoint large sets estimate low jaccard") {
    val a = mh.signature((1 to 500).map(i => s"a$i"))
    val b = mh.signature((1 to 500).map(i => s"b$i"))
    assert(MinHash.jaccard(a, b) < 0.15)
  }

  test("jaccard estimate concentrates near the true value") {
    val wide = MinHash(256)
    val universe = (1 to 1000).map(i => s"v$i")
    // true J = 500/1500 = 1/3
    val a = wide.signature(universe.take(1000))
    val b = wide.signature(universe.drop(500) ++ (1 to 500).map(i => s"w$i"))
    val est = MinHash.jaccard(a, b)
    assert(math.abs(est - 1.0 / 3) < 0.12, s"estimate $est too far from 1/3")
  }

  test("mean jaccard error over random set pairs stays within 1/sqrt(k) for k = 16, 64, 256") {
    // One case: 30 set pairs of 1-150 elements with a known overlap, named
    // with a fresh salt so every case hashes different strings.
    val pair = for {
      salt   <- Gen.choose(0, Int.MaxValue)
      n1     <- Gen.choose(1, 150)
      n2     <- Gen.choose(1, 150)
      shared <- Gen.choose(0, math.min(n1, n2))
    } yield {
      val a = (0 until n1).map(i => s"$salt-$i")
      val b = (n1 - shared until n1 - shared + n2).map(i => s"$salt-$i")
      (a, b, shared.toDouble / (n1 + n2 - shared))
    }
    PropCheck.check(Prop.forAllNoShrink(Gen.oneOf(16, 64, 256), Gen.listOfN(30, pair)) { (k, pairs) =>
      val m = MinHash(k)
      val err = pairs.map { case (a, b, j) => math.abs(MinHash.jaccard(m.signature(a), m.signature(b)) - j) }
      err.sum / err.size <= 1.0 / math.sqrt(k.toDouble)
    }, minSuccessful = 30)
  }

  test("jaccard of empty vs anything is 0") {
    val e = mh.signature(Seq.empty)
    val s = mh.signature(Seq("a"))
    assert(MinHash.jaccard(e, s) == 0.0)
    assert(MinHash.jaccard(s, e) == 0.0)
  }

  test("jaccard estimate is symmetric and within [0,1] (100 random sets)") {
    val rng = new scala.util.Random(9)
    (0 until 100).foreach { _ =>
      val a = mh.signature(Seq.fill(rng.nextInt(50))(s"t${rng.nextInt(100)}"))
      val b = mh.signature(Seq.fill(rng.nextInt(50))(s"t${rng.nextInt(100)}"))
      assert(MinHash.jaccard(a, b) == MinHash.jaccard(b, a))
      assert(MinHash.jaccard(a, b) >= 0.0 && MinHash.jaccard(a, b) <= 1.0)
    }
  }

  test("containment of a subset in its superset estimates ~1") {
    val sub   = (1 to 200).map(i => s"x$i")
    val sup   = (1 to 800).map(i => s"x$i")
    val c = MinHash.containment(mh.signature(sub), mh.signature(sup), 200, 800)
    assert(c > 0.7, s"containment $c")
  }

  test("containment of disjoint sets estimates ~0") {
    val a = (1 to 300).map(i => s"a$i"); val b = (1 to 300).map(i => s"b$i")
    val c = MinHash.containment(mh.signature(a), mh.signature(b), 300, 300)
    assert(c < 0.2, s"containment $c")
  }

  test("containment with zero-size A is 0") {
    assert(MinHash.containment(mh.signature(Seq.empty), mh.signature(Seq("a")), 0, 1) == 0.0)
  }

  test("signature width mismatch is rejected") {
    val a = MinHash(16).signature(Seq("a"))
    val b = MinHash(32).signature(Seq("a"))
    assertThrows[IllegalArgumentException](MinHash.jaccard(a, b))
  }

  test("bandKeys: equal signatures share all band keys") {
    val s = mh.signature(Seq("p", "q", "r"))
    assert(MinHash.bandKeys(s, 8) == MinHash.bandKeys(s.clone(), 8))
  }

  test("bandKeys: near-identical sets share at least one band key") {
    val base = (1 to 300).map(i => s"e$i")
    val a = mh.signature(base)
    val b = mh.signature(base.drop(3))
    val shared = MinHash.bandKeys(a, 4).toSet.intersect(MinHash.bandKeys(b, 4).toSet)
    assert(shared.nonEmpty)
  }

  test("bandKeys of empty signature is empty") {
    assert(MinHash.bandKeys(mh.signature(Seq.empty), 8).isEmpty)
  }

  test("k must be positive") {
    assertThrows[IllegalArgumentException](MinHash(0))
  }

  /** Slot i as k separate murmur3 passes: the minimum over the non-null
    * elements of `stringHash(e, 0x9747b28c + i)` widened to a Long.
    */
  private def referenceSignature(k: Int, elems: Seq[String]): Array[Long] =
    Array.tabulate(k) { i =>
      elems.filter(_ != null)
        .map(e => MurmurHash3.stringHash(e, 0x9747b28c + i).toLong & 0xffffffffL)
        .minOption.getOrElse(MinHash.Empty)
    }

  test("signature equals per-slot murmur3 bit for bit (arbitrary strings, nulls)") {
    val elems = Gen.listOf(Gen.frequency(9 -> PropCheck.awkwardString, 1 -> Gen.const(null: String)))
    PropCheck.check(Prop.forAllNoShrink(Gen.oneOf(1, 3, 64, 128), elems) { (k, es) =>
      MinHash(k).signature(es).sameElements(referenceSignature(k, es))
    })
  }

  test("signature equals per-slot murmur3 on long strings and sets") {
    val rng = new scala.util.Random(4)
    val es = Seq.fill(500)(rng.nextString(rng.nextInt(300)))
    assert(mh.signature(es).sameElements(referenceSignature(64, es)))
    assert(mh.signature(Seq("", "a", "ab", "abc")).sameElements(referenceSignature(64, Seq("", "a", "ab", "abc"))))
  }
}
