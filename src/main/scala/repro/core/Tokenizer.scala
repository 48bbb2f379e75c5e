package repro.core

import repro.lake.Text

/** Lowercasing word tokenizer — the repo's stand-in for the BERT-uncased
  * tokenizer. Lowercases with `Text.lower` (`Locale.ROOT`, so "I" -> "i"
  * in every locale), then emits every maximal run of ASCII letters and
  * digits, so "Reference Area" -> ["reference", "area"] and "AT130" ->
  * ["at130"].
  *
  * Only ASCII letters and digits make words, so non-ASCII letters split
  * them: "Café Crème" -> ["caf", "cr", "me"]. Lowercasing runs first, so a
  * character that lowercases to ASCII joins a word: the Kelvin sign U+212A
  * becomes "k". One scan over the lowercased string gives the same tokens
  * as splitting it on runs of other characters and dropping empty pieces.
  */
object Tokenizer {

  private def isWordChar(c: Char): Boolean =
    (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z')

  /** Tokenize one string; null-safe (null -> no tokens). */
  def tokenize(s: String): Seq[String] =
    if (s == null) Nil
    else {
      val lower = Text.lower(s)
      val n = lower.length
      val out = List.newBuilder[String]
      var i = 0
      while (i < n) {
        while (i < n && !isWordChar(lower.charAt(i))) i += 1
        val start = i
        while (i < n && isWordChar(lower.charAt(i))) i += 1
        if (i > start) out += lower.substring(start, i)
      }
      out.result()
    }

  /** Bag (multiset) of tokens with counts; the unit of "mean-pooled"
    * value summaries used by the value-based baseline analogues.
    */
  def bag(tokens: Iterable[String]): Map[String, Int] =
    tokens.groupBy(identity).map { case (t, ts) => (t, ts.size) }

  /** Jaccard over token *sets* (headers, descriptions). */
  def jaccard(a: Set[String], b: Set[String]): Double =
    if (a.isEmpty && b.isEmpty) 0.0
    else a.intersect(b).size.toDouble / a.union(b).size
}
