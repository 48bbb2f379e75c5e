package repro.core

import org.scalacheck.Prop
import org.scalatest.funsuite.AnyFunSuite

import repro.PropCheck

class TokenizerSpec extends AnyFunSuite {

  test("tokenize lowercases and splits on non-alphanumerics") {
    assert(Tokenizer.tokenize("Reference Area") == Seq("reference", "area"))
    assert(Tokenizer.tokenize("on_time_pct") == Seq("on", "time", "pct"))
    assert(Tokenizer.tokenize("AT130") == Seq("at130"))
    assert(Tokenizer.tokenize("a-b.c/d") == Seq("a", "b", "c", "d"))
  }

  test("tokenize handles null, empty, and punctuation-only strings") {
    assert(Tokenizer.tokenize(null).isEmpty)
    assert(Tokenizer.tokenize("").isEmpty)
    assert(Tokenizer.tokenize("--//--").isEmpty)
  }

  test("tokenize keeps digits") {
    assert(Tokenizer.tokenize("2023-01-15") == Seq("2023", "01", "15"))
  }

  test("bag counts duplicates") {
    assert(Tokenizer.bag(Seq("a", "b", "a")) == Map("a" -> 2, "b" -> 1))
  }

  test("cosine of a bag with itself is 1") {
    val b = Tokenizer.bag(Seq("x", "y", "x", "z"))
    assert(math.abs(Tokenizer.cosine(b, b) - 1.0) < 1e-12)
  }

  test("cosine of disjoint bags is 0") {
    assert(Tokenizer.cosine(Map("a" -> 1), Map("b" -> 2)) == 0.0)
  }

  test("cosine with empty bag is 0") {
    assert(Tokenizer.cosine(Map.empty, Map("b" -> 2)) == 0.0)
    assert(Tokenizer.cosine(Map("b" -> 2), Map.empty) == 0.0)
  }

  test("cosine is symmetric and bounded (100 random bags)") {
    val rng = new scala.util.Random(7)
    (0 until 100).foreach { _ =>
      val a = Tokenizer.bag(Seq.fill(rng.nextInt(20))(rng.nextInt(8).toString))
      val b = Tokenizer.bag(Seq.fill(rng.nextInt(20))(rng.nextInt(8).toString))
      val c1 = Tokenizer.cosine(a, b)
      val c2 = Tokenizer.cosine(b, a)
      assert(math.abs(c1 - c2) < 1e-9)
      assert(c1 >= 0.0 && c1 <= 1.0 + 1e-9)
    }
  }

  test("jaccard basics") {
    assert(Tokenizer.jaccard(Set("a", "b"), Set("b", "c")) == 1.0 / 3)
    assert(Tokenizer.jaccard(Set.empty, Set.empty) == 0.0)
    assert(Tokenizer.jaccard(Set("a"), Set("a")) == 1.0)
  }

  test("jaccard is symmetric and bounded (100 random sets)") {
    val rng = new scala.util.Random(8)
    (0 until 100).foreach { _ =>
      val a = Seq.fill(rng.nextInt(20))(rng.nextInt(12).toString).toSet
      val b = Seq.fill(rng.nextInt(20))(rng.nextInt(12).toString).toSet
      assert(Tokenizer.jaccard(a, b) == Tokenizer.jaccard(b, a))
      assert(Tokenizer.jaccard(a, b) <= 1.0)
    }
  }

  test("non-ASCII letters split words; characters that lowercase to ASCII join them") {
    assert(Tokenizer.tokenize("Café Crème") == Seq("caf", "cr", "me"))
    assert(Tokenizer.tokenize("\u212Aelvin") == Seq("kelvin"))
  }

  test("tokenize equals lowercasing and String.split on non-alphanumerics") {
    PropCheck.check(Prop.forAllNoShrink(PropCheck.awkwardString) { s =>
      Tokenizer.tokenize(s) == s.toLowerCase.split("[^\\p{Alnum}]+").filter(_.nonEmpty).toSeq
    })
  }
}
