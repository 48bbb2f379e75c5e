package repro.lake

/** One data-lake table: cells are strings (null or blank = missing), exactly
  * what a CSV in a CKAN/Socrata-style lake gives you. All benchmark generators
  * produce these; sketching consumes them.
  *
  * @param id          lake-unique table id (file name in the paper's lakes)
  * @param description free-text table description (may be empty)
  * @param columnNames header row
  * @param rows        row-major cells; every row has columnNames.length cells
  */
case class LakeTable(
    id: String,
    description: String,
    columnNames: Seq[String],
    rows: Seq[Seq[String]],
) {
  def numRows: Int = rows.length
  def numCols: Int = columnNames.length

  /** Column-major view; missing cells preserved. */
  def column(i: Int): Seq[String] = rows.map(_(i))

  /** The column's values: its cells that are not missing, in row order. */
  def values(i: Int): Seq[String] = column(i).filterNot(LakeTable.isMissing)
}

object LakeTable {
  /** A cell is missing when it is null or only whitespace. */
  def isMissing(cell: String): Boolean = cell == null || cell.trim.isEmpty
}
