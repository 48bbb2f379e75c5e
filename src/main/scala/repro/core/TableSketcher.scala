package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.lake.LakeTable

/** Per-column numerical sketch (paper §3, sketch 1).
  *
  * ``numeric`` holds [mean, std, min, max, p10, p25, p50, p75, p90] for
  * columns that parse as int/float/date; all-NaN otherwise.
  */
case class ColumnSketch(
    name: String,
    position: Int,
    colType: String,
    rowCount: Long,
    nullCount: Long,
    distinctCount: Long,
    avgWidth: Double,
    numeric: Array[Double],
    valueMinHash: Array[Long],
    tokenMinHash: Array[Long],
) {
  def nullFrac: Double     = if (rowCount == 0) 0.0 else nullCount.toDouble / rowCount
  def distinctFrac: Double = if (rowCount == 0) 0.0 else distinctCount.toDouble / rowCount
  def isNumeric: Boolean   = !numeric(0).isNaN
}

/** Whole-table sketch: per-column sketches + the content snapshot
  * (MinHash over full-row strings, paper §3, sketch 3) + description.
  */
case class TableSketch(
    tableId: String,
    description: String,
    rowCount: Long,
    columns: Seq[ColumnSketch],
    contentMinHash: Array[Long],
    distinctRowCount: Long,
)

object NumericalSketch {
  val Size = 9

  val empty: Array[Double] = Array.fill(Size)(Double.NaN)

  /** The mean, `sum / n`; when finite values overflow the sum (three near
    * 1e308), the sum is taken over the values divided by `max |v|` and scaled
    * back (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 4).
    */
  def mean(values: Seq[Double]): Double = {
    val sum = values.sum
    lazy val scale = maxAbs(values)
    if (sum.isFinite || !scale.isFinite) sum / values.length else values.map(_ / scale).sum / values.length * scale
  }

  private def maxAbs(values: Seq[Double]): Double = values.foldLeft(0.0)((m, v) => math.max(m, math.abs(v)))

  /** Stats + percentile sketch over parsed numeric values. The squared
    * deviations from `mean` are rescaled like `mean`'s sum when they overflow.
    */
  def of(values: Seq[Double]): Array[Double] = {
    if (values.isEmpty) return empty
    val n      = values.length
    val sorted = values.sorted
    val mean   = NumericalSketch.mean(values)
    val sq     = values.map(v => (v - mean) * (v - mean)).sum
    lazy val scale = maxAbs(values)
    val std =
      if (sq.isFinite || !scale.isFinite) math.sqrt(sq / n)
      else math.sqrt(values.map { v => val d = v / scale - mean / scale; d * d }.sum / n) * scale
    def pct(p: Double): Double = sorted(math.min(n - 1, math.max(0, (p * (n - 1)).round.toInt)))
    Array(mean, std, sorted.head, sorted.last,
          pct(0.10), pct(0.25), pct(0.50), pct(0.75), pct(0.90))
  }
}

/** ``LakeTable -> TableSketch``: the paper's per-table preprocessing, as a
  * pure function. `sketchCorpus` maps it over a driver-resident corpus on
  * the [[Parallel]] pool; `sketchAll` maps it over a ``Dataset[LakeTable]``.
  * Both paths run `sketch` itself, so a sketch means the same on each.
  */
object TableSketcher {

  val minhash: MinHash = MinHash()

  def sketchColumn(name: String, position: Int, values: Seq[String]): ColumnSketch = {
    val t        = TypeInference.infer(values)
    val nonNull  = values.filterNot(LakeTable.isMissing)
    val distinct = nonNull.distinct
    val widths   = if (nonNull.isEmpty) 0.0 else nonNull.map(_.length).sum.toDouble / nonNull.size
    val numeric =
      if (t == TypeInference.StringT) NumericalSketch.empty
      else NumericalSketch.of(nonNull.flatMap(v => TypeInference.numericValue(v, t)))
    val valueSig = minhash.signature(distinct)
    // Token MinHash only for string columns (paper §3: "For numerical and
    // date columns, only the MinHash for the cell values is included").
    val tokenSig =
      if (t == TypeInference.StringT) minhash.signature(distinct.flatMap(Tokenizer.tokenize).distinct)
      else Array.empty[Long]
    ColumnSketch(name, position, t.name, values.size.toLong, (values.size - nonNull.size).toLong,
                 distinct.size.toLong, widths, numeric, valueSig, tokenSig)
  }

  def rowString(row: Seq[String]): String =
    row.iterator.map(v => if (v == null) "" else v).mkString(" ")

  def sketch(t: LakeTable): TableSketch = {
    val cols = t.columnNames.zipWithIndex.map { case (name, i) =>
      sketchColumn(name, i, t.column(i))
    }
    val rowStrings = t.rows.map(rowString).distinct
    TableSketch(t.id, t.description, t.numRows.toLong, cols,
                minhash.signature(rowStrings), rowStrings.size.toLong)
  }

  /** Sketches as a Spark `Dataset`: `sketch` mapped over a
    * `Dataset[LakeTable]`, for callers that want the sketches in Spark
    * (the Spark extension point of DESIGN §4). Every cell is encoded into
    * Catalyst rows and shipped to the tasks, so a corpus that is already a
    * driver map is cheaper to sketch with `sketchCorpus`.
    */
  def sketchAll(spark: SparkSession, tables: Seq[LakeTable]): Dataset[TableSketch] = {
    import spark.implicits._
    spark.createDataset(tables).map(sketch _)
  }

  /** The sketches of a driver-resident corpus by table id: `sketch` mapped
    * over the tables on the driver's [[Parallel]] pool, with no Spark job.
    */
  def sketchCorpus(tables: Map[String, LakeTable]): Map[String, TableSketch] =
    Parallel.map(tables.values.toSeq)(t => t.id -> sketch(t)).toMap
}
