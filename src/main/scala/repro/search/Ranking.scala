package repro.search

/** The ranking every search method ends with, in join-scan partitions and on the driver. */
private[search] object Ranking {

  /** The k best-scored entries: score descending, then id ascending. */
  def topScored(scored: Iterable[(String, Double)], k: Int): Seq[(String, Double)] =
    scored.toSeq.sortBy { case (id, s) => (-s, id) }.take(k)

  /** Ids of the k best-scored entries, in `topScored` order. */
  def top(scored: Iterable[(String, Double)], k: Int): Seq[String] =
    topScored(scored, k).map(_._1)

  /** Ranks the lake tables other than `query` that have a column. */
  def lake(ids: Iterable[String], query: String, k: Int)(hasColumns: String => Boolean)
          (score: String => Double): Seq[String] =
    top(ids.filter(c => c != query && hasColumns(c)).map(c => c -> score(c)), k)
}
