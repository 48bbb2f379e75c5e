package repro.search

import repro.core.Parallel

/** The ranking every search method ends with. */
private[search] object Ranking {

  /** Ids of the k best-scored entries: score descending, then id ascending. */
  def top(scored: Iterable[(String, Double)], k: Int): Seq[String] =
    scored.toSeq.sortBy { case (id, s) => (-s, id) }.take(k).map(_._1)

  /** Ranks the lake tables other than `query` by `score`, computed on the
    * `Parallel` pool; a table scored `None` is not a candidate.
    */
  def lake(ids: Iterable[String], query: String, k: Int)(score: String => Option[Double]): Seq[String] =
    top(Parallel.map(ids.filter(_ != query).toSeq)(id => score(id).map(id -> _)).flatten, k)
}
