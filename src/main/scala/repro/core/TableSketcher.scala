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
  * pure function. Every sketch of a corpus comes from one map of `sketch`
  * over its tables on the [[Parallel]] pool: `sketchCorpus` keys the
  * sketches by table id, and `sketchAll` hands them to Spark.
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

  /** The sketches of `tables` as a local Spark `Dataset`, in input order,
    * computed by the same pool map as `sketchCorpus`. Only the finished
    * sketches reach Spark's encoder; no Spark task runs program code.
    */
  def sketchAll(spark: SparkSession, tables: Seq[LakeTable]): Dataset[TableSketch] = {
    import spark.implicits._
    spark.createDataset(sketches(tables))
  }

  /** The sketches of a driver-resident corpus by table id, with no Spark job. */
  def sketchCorpus(tables: Map[String, LakeTable]): Map[String, TableSketch] =
    sketches(tables.values.toSeq).map(s => s.tableId -> s).toMap

  /** `sketch` mapped over `tables` on the [[Parallel]] pool, in input order. */
  private def sketches(tables: Seq[LakeTable]): Seq[TableSketch] = Parallel.map(tables)(sketch)
}
