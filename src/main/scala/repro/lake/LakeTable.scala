package repro.lake

/** One data-lake table: cells are strings (null or blank = missing), exactly
  * what a CSV in a CKAN/Socrata-style lake gives you. All benchmark generators
  * produce these; sketching consumes them.
  *
  * The companion's `apply`, which every generator calls, makes each row an
  * `IndexedSeq`, so `column(i)` reads one cell per row in O(1) where a
  * `List` row would be walked up to cell `i` on every read. Only the row
  * type changes: cells, `equals` and `hashCode` are those of the rows given.
  * `copy` goes through `apply` too. The cells are stored once, row-major:
  * a column-major copy held as well measured +7% `finetune` heap on
  * perfbench, so columns are read, not stored.
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

  /** The case-class `copy`, but through the companion's `apply`, so the
    * copy's rows are `IndexedSeq`s as well.
    */
  def copy(id: String = id, description: String = description,
           columnNames: Seq[String] = columnNames, rows: Seq[Seq[String]] = rows): LakeTable =
    LakeTable(id, description, columnNames, rows)
  def numCols: Int = columnNames.length

  /** Column-major view; missing cells preserved. */
  def column(i: Int): Seq[String] = rows.map(_(i))

  /** The column's values: its cells that are not missing, in row order. */
  def values(i: Int): Seq[String] = column(i).filterNot(LakeTable.isMissing)
}

object LakeTable {
  /** A table whose rows are the given rows as `IndexedSeq`s. A row that
    * already is one is kept as it is, so the generators, which build
    * `Vector` rows, pay for no copy here.
    */
  def apply(id: String, description: String, columnNames: Seq[String], rows: Seq[Seq[String]]): LakeTable =
    new LakeTable(id, description, columnNames, rows.map(_.toIndexedSeq))

  /** A cell is missing when it is null or only whitespace. */
  def isMissing(cell: String): Boolean = cell == null || cell.trim.isEmpty
}
