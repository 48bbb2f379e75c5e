package repro.report

import org.apache.logging.log4j.LogManager
import org.apache.spark.sql.SparkSession

import repro.core.TableSketcher
import repro.lake.Text
import repro.lakebench.LakeBenchSuite
import repro.nn.Metrics
import repro.search.{JoinSearch, UnionSearch}

/** Search experiments (§6.3, Figures 8–10 — shape-only extras here since
  * figures are out of the reproduction's table scope): F1@k rows for join
  * search over the Wiki lake and union search over the TUS/SANTOS-style
  * corpus.
  */
object SearchReport {

  private val log = LogManager.getLogger(getClass)

  val Ks: Seq[Int] = Seq(1, 2, 3, 5, 8, 10)

  /** `body`'s result and its wall time in milliseconds. */
  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e6)
  }

  /** F1@k per method at every k in `Ks`, averaged over the queries, and
    * the printed lines: a header row, then one row per method.
    */
  private def report(title: String, queries: Seq[String], relevant: String => Set[String],
                     methods: Seq[(String, Map[String, Seq[String]])]): (Seq[String], Map[String, Seq[Double]]) = {
    val truth = queries.map(relevant)
    val rows = methods.map { case (name, res) =>
      name -> Ks.map(k => Metrics.mean(queries.zip(truth).map { case (q, rel) =>
        Metrics.f1AtK(res.getOrElse(q, Seq.empty), rel, k)
      }))
    }
    val lines = (Text.format("%-14s", title) + Ks.map(Text.format(" |  F1@%-2d", _)).mkString) +:
      rows.map { case (name, scores) => Text.format("%-14s", name) + scores.map(Text.format(" | %5.3f", _)).mkString }
    (lines, rows.toMap)
  }

  /** Fig. 8 analogue: join search over the Wiki lake; ground truth is
    * *sensible* joinability (same concept + entity overlap).
    */
  def joinSearch(spark: SparkSession, nQueries: Int = 40): (Seq[String], Map[String, Seq[Double]]) = {
    val lake    = LakeBenchSuite.wikiLake
    val tables  = lake.lakeTables
    val sketches = TableSketcher.sketchCorpus(tables)
    val rng = new scala.util.Random(17)
    val queries = rng.shuffle(lake.tables.filter(t => JoinSearch.relevant(lake, t.table.id).nonEmpty))
      .take(nQueries).map(t => (t.table.id, 0))

    val (emb, buildMs) = timed(JoinSearch.embeddingsDf(spark, sketches, tables))
    val (ours, queryMs) = timed(JoinSearch.searchEmbeddings(spark, emb, queries, Ks.max))
    log.info(Text.format("join search: TabSketchFM index of %d columns built in %.1f ms; %d queries in %.1f ms, " +
             "%.2f ms per query", emb.size, buildMs, queries.size, queryMs, queryMs / queries.size))
    val methods: Seq[(String, Map[String, Seq[String]])] = Seq(
      "TabSketchFM" -> ours,
      "LSHForest"   -> JoinSearch.searchLsh(sketches, queries, Ks.max),
      "JOSIE"       -> JoinSearch.searchJosie(tables, queries, Ks.max),
      "EmbedJoin"   -> JoinSearch.searchEmbedJoin(tables, queries, Ks.max),
    )
    report("Wiki Join", queries.map(_._1), JoinSearch.relevant(lake, _), methods)
  }

  /** Fig. 9/10 analogue: union search over the TUS/SANTOS-style corpus;
    * relevant = tables sampled from the same seed table.
    */
  def unionSearch(spark: SparkSession, nQueries: Int = 40): (Seq[String], Map[String, Seq[Double]]) = {
    val bench  = LakeBenchSuite.tusSantos
    val tables = bench.tables
    val sketches = TableSketcher.sketchCorpus(tables)
    def domain(id: String) = id.takeWhile(_ != '_')
    def relevant(q: String): Set[String] = tables.keys.filter(t => t != q && domain(t) == domain(q)).toSet
    val rng = new scala.util.Random(19)
    val queries = rng.shuffle(tables.keys.toSeq).take(nQueries)

    // Union search has no index: the call embeds every lake table, then
    // ranks the lake for each query.
    val (ours, callMs) = timed(UnionSearch.searchEmbeddings(sketches, tables, queries, Ks.max))
    log.info(Text.format("union search: TabSketchFM embedded %d tables and answered %d queries in %.1f ms, " +
             "%.2f ms per query", tables.size, queries.size, callMs, callMs / queries.size))
    val methods: Seq[(String, Map[String, Seq[String]])] = Seq(
      "TabSketchFM" -> ours,
      "D3L"         -> UnionSearch.searchD3L(sketches, queries, Ks.max),
      "SANTOS"      -> UnionSearch.searchSantos(sketches, queries, Ks.max),
      "Starmie"     -> UnionSearch.searchStarmie(tables, queries, Ks.max),
    )
    report("Union (TUS)", queries, relevant, methods)
  }
}
