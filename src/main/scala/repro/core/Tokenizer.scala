package repro.core

import java.util.regex.Pattern

/** Lowercasing word tokenizer — the repo's stand-in for the BERT-uncased
  * tokenizer. Lowercases (default locale), then splits on every run of
  * characters other than ASCII letters and digits, so "Reference Area" ->
  * ["reference", "area"] and "AT130" -> ["at130"].
  *
  * ``\p{Alnum}`` is ASCII-only in Java regexes, so non-ASCII letters split
  * words: "Café Crème" -> ["caf", "cr", "me"]. Lowercasing runs first, so a
  * character that lowercases to ASCII joins a word: the Kelvin sign U+212A
  * becomes "k".
  */
object Tokenizer {

  private val Separators = Pattern.compile("[^\\p{Alnum}]+")

  /** Tokenize one string; null-safe (null -> no tokens). */
  def tokenize(s: String): Seq[String] =
    if (s == null) Seq.empty
    else Separators.split(s.toLowerCase, 0).iterator.filter(_.nonEmpty).toSeq

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
