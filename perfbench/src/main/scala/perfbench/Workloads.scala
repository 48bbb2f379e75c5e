package perfbench

import java.util.Arrays

import scala.util.Random

import org.apache.spark.sql.SparkSession

import repro.Oracle
import repro.core.{ColumnSketch, MinHash, TableSketch, TableSketcher, TypeInference}
import repro.lake.LakeTable
import repro.lakebench._
import repro.models.{Baselines, PairFeaturizer, Runner}
import repro.nn.Metrics
import repro.report.{Reports, SearchReport}
import repro.search.{JoinSearch, UnionSearch}

final case class Ctx(spark: SparkSession, seed: Long, seconds: Double, rec: Recorder, trace: Trace, work: String)

/** A workload: inputs made from the seed, a timed pass, and output checks. */
trait Workload {
  /** How many timed passes a run makes: about `seconds` of work. */
  def passes: Int
  /** Builds the inputs; it runs several times so set-up time is a median. */
  def setup(): Unit
  /** One unit of timed work: calls into the program and nothing else.
    * Pass -1 is the untimed warm-up.
    */
  def pass(i: Int): Unit
  /** Checks the outputs of pass `i`, outside its timed wall. */
  def checkPass(i: Int): Unit
  /** Checks that need all passes, and the quality values. */
  def finish(): Unit
}

/** The LakeBench instances of a workload seed. Seed 0 keeps every
  * generator's default seed, so at scale 1 it gives the LakeBenchSuite
  * instances; seed s shifts each generator seed by 1000 s.
  */
object Lakes {

  def genSeed(base: Long, seed: Long): Long = base + 1000L * seed

  /** All eight benchmarks, in Table 2 order, with table and pair counts
    * multiplied by `scale`.
    */
  def suite(seed: Long, scale: Double): Seq[Benchmark] = {
    def n(x: Int): Int = math.max(4, math.round(x * scale).toInt)
    val lake = WikiLake.generate(genSeed(21, seed), nClasses = n(24))
    Seq(
      TusSantos.generate(genSeed(11, seed), perSeed = n(36), nPairs = n(2800)),
      WikiUnion.generate(lake, genSeed(31, seed), nPairs = n(4200)),
      EcbUnion.generate(genSeed(51, seed), nDatasets = n(26), nPairs = n(2100)),
      WikiJoin.generateJaccard(lake, genSeed(41, seed), nPairs = n(1700)),
      WikiJoin.generateContainment(lake, genSeed(43, seed), nPairs = n(2100)),
      SpiderOpenData.generate(genSeed(71, seed), nBaseTables = n(360)),
      EcbJoin.generate(genSeed(61, seed), nDatasets = n(64)),
      CkanSubset.generate(genSeed(81, seed), nBaseTables = n(500)),
    )
  }

  def cells(tables: Iterable[LakeTable]): Long = tables.iterator.map(t => t.numRows.toLong * t.numCols).sum

  /** Table, cell and pair counts of suites; the three Wiki benchmarks of a
    * suite share one corpus, which counts once.
    */
  def recordCounts(rec: Recorder, suites: Seq[Seq[Benchmark]]): Unit = {
    val corpora = suites.flatMap(_.map(_.tables).foldLeft(List.empty[Map[String, LakeTable]]) {
      (seen, t) => if (seen.exists(_ eq t)) seen else t :: seen
    })
    rec.counts("lakebench.tables") = corpora.map(_.size.toLong).sum
    rec.counts("lakebench.cells")  = corpora.map(c => cells(c.values)).sum
    rec.counts("lakebench.pairs")  = suites.flatten.map(_.allPairs.size.toLong).sum
  }

  /** Metric-name form of a benchmark, model or method name: "Vanilla BERT" -> "vanilla_bert". */
  def tag(name: String): String = name.toLowerCase.replaceAll("[^a-z0-9]+", "_").stripSuffix("_")
}

/** Output checks of repro.core, on the sketches a workload made:
  * Spark `sketchAll` agrees with the local `TableSketcher.sketch`, the
  * numerical sketch agrees with DuckDB, and MinHash Jaccard estimates lie
  * in [0, 1]; records their mean and max error against exact Jaccard.
  */
object CoreChecks {

  private def same(a: TableSketch, b: TableSketch): Boolean = {
    def scalars(c: ColumnSketch) = c.copy(numeric = null, valueMinHash = null, tokenMinHash = null)
    a.copy(columns = Nil, contentMinHash = null) == b.copy(columns = Nil, contentMinHash = null) &&
    Arrays.equals(a.contentMinHash, b.contentMinHash) && a.columns.size == b.columns.size &&
    a.columns.zip(b.columns).forall { case (x, y) =>
      scalars(x) == scalars(y) && Arrays.equals(x.numeric, y.numeric) &&
      Arrays.equals(x.valueMinHash, y.valueMinHash) && Arrays.equals(x.tokenMinHash, y.tokenMinHash)
    }
  }

  def run(ctx: Ctx, tables: Seq[LakeTable], sketches: Map[String, TableSketch]): Unit = {
    import ctx._
    val rng = new Random(seed)

    rng.shuffle(tables).take(24).foreach { t =>
      rec.check(sketches.get(t.id).exists(same(_, TableSketcher.sketch(t))),
        s"core: sketchAll and TableSketcher.sketch disagree on ${t.id}")
    }

    val numericCols = for {
      t <- tables; c <- sketches(t.id).columns
      if c.colType == TypeInference.IntT.name || c.colType == TypeInference.FloatT.name
    } yield (t, c)
    rng.shuffle(numericCols).take(6).foreach { case (t, c) =>
      import spark.implicits._
      val ok =
        try {
          Oracle.assertEquivalent(
            Seq((c.numeric(0), c.numeric(2), c.numeric(3))).toDF("mean", "mn", "mx"),
            "SELECT avg(x) AS mean, min(x) AS mn, max(x) AS mx FROM " +
              "(SELECT TRY_CAST(trim(v) AS DOUBLE) AS x FROM t) WHERE x IS NOT NULL AND isfinite(x)",
            "t" -> t.column(c.position).toDF("v"))
          true
        } catch { case e: IllegalArgumentException => Console.err.println(e.getMessage); false }
      rec.check(ok, s"core: numerical sketch of ${t.id}.${c.name} disagrees with DuckDB")
    }

    // Column pairs that share a header and have a nonzero exact Jaccard.
    val byName = tables.flatMap(t => t.columnNames.indices.map(i => (t, i))).groupBy(p => p._1.columnNames(p._2))
      .values.filter(_.size > 1).toVector.sortBy(g => (g.head._1.id, g.head._2))
    def valueSet(t: LakeTable, i: Int) = t.column(i).filter(v => v != null && v.trim.nonEmpty).toSet
    val errs = Iterator.continually {
      val g = byName(rng.nextInt(byName.size))
      val Seq(a, b) = rng.shuffle(g).take(2)
      val (sa, sb) = (valueSet(a._1, a._2), valueSet(b._1, b._2))
      val exact = if (sa.isEmpty && sb.isEmpty) 0.0 else sa.intersect(sb).size.toDouble / sa.union(sb).size
      val est = MinHash.jaccard(sketches(a._1.id).columns(a._2).valueMinHash,
                                sketches(b._1.id).columns(b._2).valueMinHash)
      (exact, est)
    }.take(if (byName.isEmpty) 0 else 20000).filter(_._1 > 0).take(200).map { case (exact, est) =>
      rec.check(est >= 0.0 && est <= 1.0, s"core: Jaccard estimate $est outside [0, 1]")
      math.abs(est - exact)
    }.toVector
    rec.values("jaccard_est_err") = Metrics.mean(errs)
    rec.values("core.jaccard_abs_err_max") = if (errs.isEmpty) 0.0 else errs.max
    rec.counts("core.jaccard_pairs") = errs.size.toLong
  }
}

/** `finetune`: the Table 2 roster on all eight benchmarks. Each
  * (model, benchmark) cell calls `PairFeaturizer.prepare`, then
  * `Runner.featurize`, then `Runner.trainEval` for two seeds, starting with
  * the per-corpus representation caches empty, as a fresh JVM regenerating
  * the table does. Table and pair counts are 8% of the paper-scale
  * suite. Training time depends on when early stopping ends each
  * training, so every pass runs on its own draw of the suite and the run's
  * median pass averages over draws; pass 0 of seed 0 is the default suite.
  */
final class Finetune(ctx: Ctx) extends Workload {
  import ctx._
  val Scale = 0.08
  val passes: Int = math.max(2, math.round(seconds / 7.0).toInt)
  val Seeds: Seq[Long] = Seq(0L, 1L)
  val roster: Seq[PairFeaturizer] = Baselines.table2Roster

  private var draws: Seq[Seq[Benchmark]] = Nil
  private var warmDraw: Seq[Benchmark] = Nil
  private var scores: Map[(String, String, Long), Double] = Map.empty
  private var allScores: Seq[Double] = Nil
  private var firstScores: Map[(String, String, Long), Double] = Map.empty

  def setup(): Unit = {
    val suites = trace.span("lakebench.generate")((0 until passes).map(d => Lakes.suite(seed * 16 + d, Scale)))
    Lakes.recordCounts(rec, suites)
    draws = suites
    warmDraw = Lakes.suite(seed * 16 + 15, Scale / 4)
  }

  def pass(i: Int): Unit = {
    val got = for (b <- if (i < 0) warmDraw else draws(i); m <- roster) yield {
      val mt = Lakes.tag(m.name)
      rec.call("models.prepare", mt)(m.prepare(spark, b.tables))
      rec.call("models.featurize", mt)(Runner.featurize(spark, m, b)).toSeq.flatMap { fs =>
        rec.count("nn.train_rows", fs.xTrain.length.toLong * Seeds.size)
        rec.count("models.pairs", b.allPairs.size.toLong)
        Seeds.flatMap(s => rec.call("nn.trainEval", mt)(Runner.trainEval(b.task, fs, s)).map(v => (b.name, m.name, s) -> v))
      }
    }
    scores = got.flatten.toMap
  }

  def checkPass(i: Int): Unit = {
    if (i == 0) firstScores = scores
    allScores ++= scores.values
    val tasks = draws(i).map(b => b.name -> b.task).toMap
    scores.foreach { case (cell @ (b, _, _), v) =>
      val inRange = tasks(b) match {
        case RegressionTask => v <= 1.0
        case _              => v >= 0.0 && v <= 1.0
      }
      rec.check(!v.isNaN && !v.isInfinite && inRange, s"finetune: score $v of $cell is not a valid ${tasks(b)} score")
    }
  }

  def finish(): Unit = {
    rec.values("finetune_score_mean") = Metrics.mean(allScores)
    // At the default seed, sampled seed-0 cells of pass 0 equal what Reports gives for them.
    if (seed == 0) {
      val rng = new Random(5)
      for (b <- rng.shuffle(draws.head).take(2); m <- rng.shuffle(roster).take(2)) {
        val cell = Reports.table2(spark, Seq(0L), Seq(m), Seq(b))._2.head
        rec.check(firstScores.get((b.name, m.name, 0L)).contains(cell.mean),
          s"finetune: ${b.name}/${m.name} seed 0 gave ${firstScores.get((b.name, m.name, 0L))}, Reports gives ${cell.mean}")
      }
    }
  }
}

/** `search`: join search over the Wiki lake and union search over
  * TUS-SANTOS, at paper scale. Generating and sketching both corpora is
  * set-up. A pass builds the join index (`JoinSearch.embeddingsDf`), lets
  * each baseline answer the query set in one call, then has TabSketchFM
  * answer the same join and union queries one query per call.
  */
final class Search(ctx: Ctx) extends Workload {
  import ctx._
  val passes: Int = math.max(1, math.round(seconds / 6.0).toInt)
  val K = 10
  val NQueries = 3

  private var lake: WikiLake.Lake = _
  private var tus: Benchmark = _
  private var sketches: Map[String, TableSketch] = Map.empty
  private var tusSketches: Map[String, TableSketch] = Map.empty
  private var joinQs: Seq[(String, Int)] = Nil
  private var unionQs: Seq[String] = Nil
  private var relevant: Map[(Boolean, String), Set[String]] = Map.empty  // (isJoin, query) -> ground truth

  private type Results = Map[String, Seq[String]]
  /** Metric-name method -> (isJoin, results) of the last pass. */
  private var results: Map[String, (Boolean, Results)] = Map.empty
  private var firstF1: Map[String, Double] = Map.empty

  def setup(): Unit = {
    lake = trace.span("lakebench.generate")(WikiLake.generate(Lakes.genSeed(21, seed)))
    tus  = trace.span("lakebench.generate")(TusSantos.generate(Lakes.genSeed(11, seed)))
    rec.counts("lakebench.tables") = (lake.lakeTables.size + tus.tables.size).toLong
    rec.counts("lakebench.cells")  = Lakes.cells(lake.lakeTables.values) + Lakes.cells(tus.tables.values)
    rec.counts("lakebench.pairs")  = tus.allPairs.size.toLong
    def sketch(name: String, ts: Map[String, LakeTable]) = trace.span("core.sketchAll", name) {
      TableSketcher.sketchAll(spark, ts.values.toSeq).collect().map(s => s.tableId -> s).toMap
    }
    sketches    = sketch("wiki", lake.lakeTables)
    tusSketches = sketch("tus_santos", tus.tables)
    // SearchReport's query sets and ground truth, with the workload seed in the RNG seed.
    joinQs = new Random(17 + 1000L * seed)
      .shuffle(lake.tables.filter(t => JoinSearch.relevant(lake, t.table.id).nonEmpty))
      .take(NQueries).map(t => (t.table.id, 0))
    unionQs = new Random(19 + 1000L * seed).shuffle(tus.tables.keys.toSeq).take(NQueries)
    def domain(id: String) = id.takeWhile(_ != '_')
    relevant = joinQs.map { case (q, _) => (true, q) -> JoinSearch.relevant(lake, q) }.toMap ++
      unionQs.map(q => (false, q) -> tus.tables.keys.filter(t => t != q && domain(t) == domain(q)).toSet)
  }

  def pass(i: Int): Unit = {
    val tables = lake.lakeTables
    def batch(join: Boolean, m: String)(body: => Results) =
      rec.call(if (join) "search.join_batch" else "search.union_batch", Lakes.tag(m))(body)
        .map(r => Lakes.tag(m) -> (join, r))
    val baselines = Seq(
      batch(join = true, "LSHForest")(JoinSearch.searchLsh(sketches, joinQs, K)),
      batch(join = true, "JOSIE")(JoinSearch.searchJosie(tables, joinQs, K)),
      batch(join = true, "EmbedJoin")(JoinSearch.searchEmbedJoin(tables, joinQs, K)),
      batch(join = false, "D3L")(UnionSearch.searchD3L(tusSketches, unionQs, K)),
      batch(join = false, "SANTOS")(UnionSearch.searchSantos(tusSketches, unionQs, K)),
      batch(join = false, "Starmie")(UnionSearch.searchStarmie(tus.tables, unionQs, K)),
    ).flatten
    val joins = rec.call("search.embeddingsDf")(JoinSearch.embeddingsDf(spark, sketches, tables, s"$work/index-pass$i"))
      .toSeq.flatMap { emb =>
        joinQs.flatMap(q => rec.call("search.join_query")(JoinSearch.searchEmbeddings(spark, emb, Seq(q), K)))
      }
    val unions = unionQs.flatMap(q =>
      rec.call("search.union_query")(UnionSearch.searchEmbeddings(tusSketches, tus.tables, Seq(q), K)))
    results = (baselines ++ Seq("tabsketchfm_join" -> (true, joins.flatten.toMap),
                                "tabsketchfm_union" -> (false, unions.flatten.toMap))).toMap
  }

  def checkPass(i: Int): Unit = {
    val f1 = results.map { case (m, (join, r)) =>
      val (qs, corpus) = if (join) (joinQs.map(_._1), lake.lakeTables) else (unionQs, tus.tables)
      m -> Metrics.mean(qs.map { q =>
        val ids = r.getOrElse(q, Nil)
        rec.check(ids.size <= K && ids.distinct.size == ids.size && ids.forall(corpus.contains) && !ids.contains(q),
          s"search: $m result for $q is not at most $K distinct lake ids without the query: $ids")
        Metrics.f1AtK(ids, relevant((join, q)), K)
      })
    }
    if (i == 0) firstF1 = f1
    rec.check(f1 == firstF1, s"search: F1@$K differs between pass 0 and pass $i: $f1 vs $firstF1")
  }

  def finish(): Unit = {
    CoreChecks.run(ctx, (lake.lakeTables.values ++ tus.tables.values).toSeq, sketches ++ tusSketches)
    firstF1.foreach { case (m, v) => rec.values(s"search.f1_at_10.$m") = v }
    rec.values("join_f1_at_10")  = firstF1.getOrElse("tabsketchfm_join", 0.0)
    rec.values("union_f1_at_10") = firstF1.getOrElse("tabsketchfm_union", 0.0)
    // At the default seed the lakes, queries and ground truth are SearchReport's
    // (which answers all queries in one call per method), so its F1@10 must match.
    if (seed == 0) {
      val at10 = SearchReport.Ks.indexOf(K)
      def named(kind: String, scores: Map[String, Seq[Double]]) = scores.map { case (m, s) =>
        (if (m == "TabSketchFM") s"tabsketchfm_$kind" else Lakes.tag(m)) -> s(at10) }
      (named("join", SearchReport.joinSearch(spark, NQueries)._2) ++
       named("union", SearchReport.unionSearch(spark, NQueries)._2)).foreach { case (m, v) =>
        rec.check(firstF1.get(m).contains(v), s"search: $m F1@$K is ${firstF1.get(m)}, SearchReport gives $v")
      }
    }
  }
}
