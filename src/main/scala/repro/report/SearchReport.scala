package repro.report

import org.apache.spark.sql.SparkSession

import repro.core.TableSketcher
import repro.lakebench.LakeBenchSuite
import repro.nn.Metrics
import repro.search.{JoinSearch, UnionSearch}

/** Search experiments (§6.3, Figures 8–10 — shape-only extras here since
  * figures are out of the reproduction's table scope): F1@k rows for join
  * search over the Wiki lake and union search over the TUS/SANTOS-style
  * corpus.
  */
object SearchReport {

  val Ks: Seq[Int] = Seq(1, 2, 3, 5, 8, 10)

  private def fmt(name: String, scores: Seq[Double]): String =
    f"$name%-14s" + scores.map(s => f" | $s%5.3f").mkString

  /** Fig. 8 analogue: join search over the Wiki lake; ground truth is
    * *sensible* joinability (same concept + entity overlap).
    */
  def joinSearch(spark: SparkSession, nQueries: Int = 40): (Seq[String], Map[String, Seq[Double]]) = {
    val lake    = LakeBenchSuite.wikiLake
    val tables  = lake.lakeTables
    val sketches = TableSketcher.sketchCorpus(spark, tables)
    val rng = new scala.util.Random(17)
    val queries = rng.shuffle(lake.tables.filter(t => JoinSearch.relevant(lake, t.table.id).nonEmpty))
      .take(nQueries).map(t => (t.table.id, 0))

    val dir = java.nio.file.Files.createTempDirectory("joinsearch").toString
    val emb = JoinSearch.embeddingsDf(spark, sketches, tables, dir)
    val kMax = Ks.max

    val methods: Seq[(String, Map[String, Seq[String]])] = Seq(
      "TabSketchFM" -> JoinSearch.searchEmbeddings(spark, emb, queries, kMax),
      "LSHForest"   -> JoinSearch.searchLsh(sketches, queries, kMax),
      "JOSIE"       -> JoinSearch.searchJosie(tables, queries, kMax),
      "EmbedJoin"   -> JoinSearch.searchEmbedJoin(tables, queries, kMax),
    )
    val scores = methods.map { case (name, res) =>
      name -> Ks.map(k => Metrics.mean(queries.map { case (q, _) =>
        Metrics.f1AtK(res.getOrElse(q, Seq.empty), JoinSearch.relevant(lake, q), k)
      }))
    }.toMap
    val lines = (f"${"Wiki Join"}%-14s" + Ks.map(k => f" |  F1@$k%-2d").mkString) +:
      methods.map(_._1).map(n => fmt(n, scores(n)))
    (lines, scores)
  }

  /** Fig. 9/10 analogue: union search over the TUS/SANTOS-style corpus;
    * relevant = tables sampled from the same seed table.
    */
  def unionSearch(spark: SparkSession, nQueries: Int = 40): (Seq[String], Map[String, Seq[Double]]) = {
    val bench  = LakeBenchSuite.tusSantos
    val tables = bench.tables
    val sketches = TableSketcher.sketchCorpus(spark, tables)
    def domain(id: String) = id.takeWhile(_ != '_')
    def relevant(q: String): Set[String] = tables.keys.filter(t => t != q && domain(t) == domain(q)).toSet
    val rng = new scala.util.Random(19)
    val queries = rng.shuffle(tables.keys.toSeq).take(nQueries)
    val kMax = Ks.max

    val methods: Seq[(String, Map[String, Seq[String]])] = Seq(
      "TabSketchFM" -> UnionSearch.searchEmbeddings(sketches, tables, queries, kMax),
      "D3L"         -> UnionSearch.searchD3L(sketches, queries, kMax),
      "SANTOS"      -> UnionSearch.searchSantos(sketches, queries, kMax),
      "Starmie"     -> UnionSearch.searchStarmie(tables, queries, kMax),
    )
    val scores = methods.map { case (name, res) =>
      name -> Ks.map(k => Metrics.mean(queries.map(q =>
        Metrics.f1AtK(res.getOrElse(q, Seq.empty), relevant(q), k))))
    }.toMap
    val lines = (f"${"Union (TUS)"}%-14s" + Ks.map(k => f" |  F1@$k%-2d").mkString) +:
      methods.map(_._1).map(n => fmt(n, scores(n)))
    (lines, scores)
  }
}
