package repro.lakebench

import scala.util.Random

import repro.lake.{LakeTable, Text}

/** European-Central-Bank-style statistical lake substrate (§5, Fig. 5a):
  * datasets of time-series tables coded on shared dimensions. Dimension
  * *names* are shared across datasets (FREQ, REF_AREA, ...); dimension
  * *codes* are short cryptic strings (AT, AT130, N, ...). Series values are
  * numeric with a scale that depends on the dimension assignment, so
  * numeric distributions genuinely carry dimension information.
  */
object EcbLake {

  /** The global dimension pool (paper: 56 dims across 74 datasets; we keep
    * 14, with up to 12 per dataset as in the union benchmark's 1..12 range).
    */
  val Dimensions: Vector[(String, Vector[String])] = Vector(
    "FREQ"       -> Vector("A", "Q", "M", "W", "D"),
    "REF_AREA"   -> Vector("AT", "AT130", "BE", "DE", "DE212", "ES", "FR", "FI", "IT", "NL", "PT", "SI", "EC", "U2"),
    "ADJUSTMENT" -> Vector("N", "S", "W", "C"),
    "UNIT"       -> Vector("EUR", "PC", "IX", "PCPA", "UNITS"),
    "ITEM"       -> Vector("NEWFLAT", "ALLFLAT", "HOUSE", "LAND", "COMM", "TOTAL"),
    "SECTOR"     -> Vector("HH", "NFC", "GOV", "MFI", "ICPF"),
    "MATURITY"   -> Vector("O", "L", "S", "T5Y", "T10Y"),
    "CURRENCY"   -> Vector("EUR", "USD", "GBP", "CHF", "JPY"),
    "SOURCE"     -> Vector("NCB", "ECB", "EST", "NSI"),
    "VALUATION"  -> Vector("F", "N", "M", "B"),
    "SUFFIX"     -> Vector("R", "E", "P", "F"),
    "COVERAGE"   -> Vector("C0", "C1", "C2", "C3", "C4"),
    "SEASONAL"   -> Vector("Y", "N"),
    "BASE_PER"   -> Vector("2010", "2015", "2020"),
  )

  val DimNames: Vector[String] = Dimensions.map(_._1)

  /** Deterministic per-assignment scale so OBS_VALUE distributions encode
    * the dimension assignment.
    */
  def scaleOf(assignment: Map[String, String]): Double = {
    val h = assignment.toSeq.sorted.map { case (d, c) => s"$d=$c" }.mkString(",").hashCode
    math.pow(10.0, 1.0 + math.floorMod(h, 5)) * (1.0 + math.floorMod(h >> 8, 7))
  }

  /** One series table for a full dimension assignment: one constant-coded
    * column per dimension + TIME_PERIOD + observation columns.
    */
  def seriesTable(id: String, dims: Seq[String], assignment: Map[String, String],
                  nRows: Int, nObsCols: Int, rng: Random): LakeTable = {
    val scale  = scaleOf(assignment)
    val header = dims ++ Seq("TIME_PERIOD") ++ (1 to nObsCols).map(i => s"OBS_VALUE_$i")
    val y0     = 1999 + rng.nextInt(8)
    val rows = (0 until nRows).map { r =>
      val dimCells = dims.map(assignment)
      val q        = r % 4
      val time     = Text.format("%04d-%02d-01", y0 + r / 4, q * 3 + 1)
      val obs = (1 to nObsCols).map { c =>
        Text.format("%.2f", scale * (1.0 + 0.05 * c) * (1.0 + 0.1 * math.sin(r / 7.0 + c)) * (0.9 + rng.nextDouble() * 0.2))
      }
      dimCells ++ Seq(time) ++ obs
    }
    LakeTable(id, s"ECB statistical series", header, rows)
  }
}
