package repro.lake

import java.util.Locale

/** The one owner of how the program turns numbers into text and folds
  * case: generated cells, tokens, header names and printed report lines
  * all go through it. Both functions use `Locale.ROOT`, so no output
  * depends on the JVM's default locale. Under `de_DE` the default would
  * print 1.5 as "1,5", which type inference then reads as a string, and
  * under `tr_TR` it would lowercase "I" to the non-ASCII "ı".
  */
object Text {

  /** `pattern` filled with `args`, as `String.format` fills it under `Locale.ROOT`. */
  def format(pattern: String, args: Any*): String =
    String.format(Locale.ROOT, pattern, args.map(_.asInstanceOf[AnyRef]): _*)

  /** `s` lowercased under `Locale.ROOT`. */
  def lower(s: String): String = s.toLowerCase(Locale.ROOT)
}
