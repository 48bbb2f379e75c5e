package repro.search

/** The ranking every search method ends with. */
private[search] object Ranking {

  /** Ids of the k best-scored entries: score descending, then id ascending. */
  def top(scored: Iterable[(String, Double)], k: Int): Seq[String] =
    scored.toSeq.sortBy { case (id, s) => (-s, id) }.take(k).map(_._1)

  /** Ranks the lake tables other than `query` that have a column. */
  def lake(ids: Iterable[String], query: String, k: Int)(hasColumns: String => Boolean)
          (score: String => Double): Seq[String] =
    top(ids.filter(c => c != query && hasColumns(c)).map(c => c -> score(c)), k)
}
