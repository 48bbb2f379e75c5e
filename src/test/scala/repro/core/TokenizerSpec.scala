package repro.core

import java.util.Locale

import org.scalacheck.Prop
import org.scalatest.funsuite.AnyFunSuite

import repro.PropCheck
import repro.lakebench.{EcbUnion, TusSantos, WikiLake}

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

  /** The split that the scan replaces: lowercase (`Locale.ROOT`), then
    * split on runs of characters other than ASCII letters and digits.
    */
  private def oracle(s: String): Seq[String] =
    if (s == null) Seq.empty else s.toLowerCase(Locale.ROOT).split("[^\\p{Alnum}]+").filter(_.nonEmpty).toSeq

  test("tokenize equals lowercasing and String.split on non-alphanumerics") {
    PropCheck.check(Prop.forAllNoShrink(PropCheck.awkwardString) { s =>
      Tokenizer.tokenize(s) == oracle(s)
    })
  }

  test("tokenize equals the split on every cell and header of small generated lakes") {
    val tables =
      WikiLake.generate(seed = 3, nClasses = 3, entitiesPerClass = 40, schemasPerClass = 2, tablesPerSchema = 2)
        .lakeTables.values ++
      TusSantos.generate(seed = 5, perSeed = 2, nPairs = 10).tables.values ++
      EcbUnion.generate(seed = 7, nDatasets = 4, nPairs = 10).tables.values
    var checked = 0
    for (t <- tables; s <- t.columnNames.iterator ++ t.rows.iterator.flatten) {
      assert(Tokenizer.tokenize(s) == oracle(s), s"cell or header ${Option(s).map(_.take(80))}")
      checked += 1
    }
    assert(checked > 1000, s"only $checked strings")
  }

  test("tokenize equals the split on a lowercase that grows, surrogates and a long string") {
    // U+0130 lowercases to two chars (i and a combining dot) outside a
    // Turkish locale, so the lowercased string is longer than the input.
    val long = "Ab9-" * 2500
    assert(long.length == 10000)
    for (s <- Seq("İstanbul", "\uD835\uDC00x", long, "x" * 10000))
      assert(Tokenizer.tokenize(s) == oracle(s), s.take(40))
    assert(Tokenizer.tokenize("\uD835\uDC00x") == Seq("x"))
    assert(Tokenizer.tokenize("x" * 10000) == Seq("x" * 10000))
    assert(Tokenizer.tokenize(long) == Seq.fill(2500)("ab9"))
  }
}
