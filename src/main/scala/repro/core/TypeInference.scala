package repro.core

import repro.lake.LakeTable

/** Column type inference, mirroring the paper's Column Type Embedding
  * (§3, item 4): best-effort parse of the first 10 non-missing values as
  * date, integer, or float; default to string.
  */
object TypeInference {

  sealed trait ColType { def name: String }
  case object StringT extends ColType { val name = "string" }
  case object IntT    extends ColType { val name = "int" }
  case object FloatT  extends ColType { val name = "float" }
  case object DateT   extends ColType { val name = "date" }

  private val IsoDate   = """(\d{4})-(\d{2})-(\d{2})""".r
  private val SlashDate = """(\d{1,2})/(\d{1,2})/(\d{2,4})""".r

  /** Days-since-epoch-ish timestamp for a date-looking value; None if the
    * value does not parse as a date. Approximate month lengths are fine —
    * the sketch only needs a monotone numeric encoding (paper: "convert
    * date columns into timestamps and treat them as numeric"). Like
    * `parseLong` and `parseDouble`, it reads the trimmed cell.
    */
  def parseDate(s: String): Option[Double] = if (s == null) None else s.trim match {
    case IsoDate(y, m, d)   => dayNumber(y.toInt, m.toInt, d.toInt)
    case SlashDate(d, m, y) => dayNumber(if (y.length == 2) 2000 + y.toInt else y.toInt, m.toInt, d.toInt)
    case _ => None
  }

  /** Month 1–12 and day 1–31 map to a timestamp; anything else is no date. */
  private def dayNumber(y: Int, m: Int, d: Int): Option[Double] =
    if (m >= 1 && m <= 12 && d >= 1 && d <= 31) Some(y * 372.0 + (m - 1) * 31 + (d - 1))
    else None

  def parseLong(s: String): Option[Long] =
    if (s == null) None
    else try { Some(java.lang.Long.parseLong(s.trim)) } catch { case _: NumberFormatException => None }

  /** A finite double, or None. A finite Java double literal starts, after
    * an optional sign, with an ASCII digit or `.`; any other string is
    * turned away before `parseDouble`, so text cells throw no exception.
    */
  def parseDouble(s: String): Option[Double] =
    if (s == null) None
    else {
      val t = s.trim
      val i = if (t.startsWith("+") || t.startsWith("-")) 1 else 0
      val c = if (i < t.length) t.charAt(i) else ' '
      if (c != '.' && (c < '0' || c > '9')) None
      else try {
        val d = java.lang.Double.parseDouble(t)
        if (java.lang.Double.isFinite(d)) Some(d) else None
      } catch { case _: NumberFormatException => None }
    }

  /** Infer the type of a column from (up to) its first 10 non-missing values. */
  def infer(values: Iterable[String]): ColType = {
    val sample = values.iterator.filterNot(LakeTable.isMissing).take(10).toSeq
    if (sample.isEmpty) StringT
    else if (sample.forall(parseDate(_).isDefined)) DateT
    else if (sample.forall(parseLong(_).isDefined)) IntT
    else if (sample.forall(parseDouble(_).isDefined)) FloatT
    else StringT
  }

  /** Numeric view of a cell under an inferred type; None for non-numeric
    * cells (they count as NaN in the numerical sketch).
    */
  def numericValue(s: String, t: ColType): Option[Double] = t match {
    case DateT           => parseDate(s)
    case IntT | FloatT   => parseDouble(s)
    case StringT         => None
  }
}
