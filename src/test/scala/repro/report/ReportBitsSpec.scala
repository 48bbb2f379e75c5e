package repro.report

import repro.SparkSpec
import repro.lakebench.{Benchmark, CkanSubset, EcbJoin, EcbUnion, SpiderOpenData, TusSantos, WikiJoin, WikiLake, WikiUnion}
import repro.models.Baselines

/** Pins the exact bits of Table 2 and of the search F1@k rows, so a
  * rewrite of featurizing, training, evaluation or search must keep every
  * printed number and every bit behind it. Table 2 runs the full roster at
  * seeds 0 and 1 on the eight benchmarks with table and pair counts scaled
  * to 8% (every generator at its default seed); join and union search run
  * with 3 queries on the full-size lakes. Each row is pinned by the SHA-256
  * of its doubles' raw bits (first 16 hex digits); a mismatch prints the
  * row. Neither report may start a Spark job.
  */
class ReportBitsSpec extends SparkSpec {

  private def n(x: Int): Int = math.max(4, math.round(x * 0.08).toInt)

  private lazy val suite: Seq[Benchmark] = {
    val lake = WikiLake.generate(nClasses = n(24))
    Seq(
      TusSantos.generate(perSeed = n(36), nPairs = n(2800)),
      WikiUnion.generate(lake, nPairs = n(4200)),
      EcbUnion.generate(nDatasets = n(26), nPairs = n(2100)),
      WikiJoin.generateJaccard(lake, nPairs = n(1700)),
      WikiJoin.generateContainment(lake, nPairs = n(2100)),
      SpiderOpenData.generate(nBaseTables = n(360)),
      EcbJoin.generate(nDatasets = n(64)),
      CkanSubset.generate(nBaseTables = n(500)),
    )
  }

  /** `body`'s result and the number of Spark jobs it started. */
  private def withJobs[A](body: => A): (A, Int) = {
    var a: Option[A] = None
    val jobs = sparkJobsDuring { a = Some(body) }
    (a.get, jobs)
  }

  private lazy val (table2, table2Jobs) =
    withJobs(Reports.table2(spark, Seq(0L, 1L), Baselines.table2Roster, suite)._2)

  private lazy val (search, searchJobs) =
    withJobs(Seq("join" -> SearchReport.joinSearch(spark, 3), "union" -> SearchReport.unionSearch(spark, 3))
      .flatMap { case (kind, (_, rows)) => rows.map { case (m, f1) => s"$kind $m" -> f1 } }.toMap)

  private def digest(xs: Seq[Double]): String = {
    val buf = java.nio.ByteBuffer.allocate(8 * xs.length)
    xs.foreach(x => buf.putLong(java.lang.Double.doubleToRawLongBits(x)))
    java.security.MessageDigest.getInstance("SHA-256").digest(buf.array())
      .take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  private def shown(xs: Seq[Double]): String =
    xs.map(x => s"$x (${java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(x))})").mkString(" ")

  // Benchmark -> digest of (mean, std) of each roster model in roster order.
  private val expectedTable2: Map[String, String] = Map(
    "TUS-SANTOS"       -> "05c68080c6737c6c",
    "Wiki Union"       -> "b8003911d9a19983",
    "ECB Union"        -> "196bccb7bae71a4b",
    "Wiki Jaccard"     -> "e64672de2abaf744",
    "Wiki Containment" -> "81dd9183a9c09776",
    "Spider-OpenData"  -> "efefd796a4780bb1",
    "ECB Join"         -> "9e190a057f5ea04a",
    "CKAN Subset"      -> "f7c2b6405e3ff9f5",
  )

  // "join|union method" -> digest of its F1@k at every k of `SearchReport.Ks`.
  // At 3 queries every union method finds only relevant tables at every k,
  // so each union row is six 1.0s.
  private val expectedSearch: Map[String, String] = Map(
    "join TabSketchFM"  -> "d147be0d8a34b5e2",
    "join LSHForest"    -> "0336839b7ac7f82a",
    "join JOSIE"        -> "943fe8fb338bf1f9",
    "join EmbedJoin"    -> "90e4f9ca76c7dff0",
    "union TabSketchFM" -> "8a97bb78e7695fa9",
    "union D3L"         -> "8a97bb78e7695fa9",
    "union SANTOS"      -> "8a97bb78e7695fa9",
    "union Starmie"     -> "8a97bb78e7695fa9",
  )

  test("Table 2 on the 8% suite starts no Spark job") {
    assert(table2Jobs == 0)
  }

  for (b <- expectedTable2.keys.toSeq.sorted) {
    test(s"Table 2's $b row keeps its exact bits") {
      val row = Baselines.table2Roster.flatMap { m =>
        table2.find(c => c.bench == b && c.model == m.name).toSeq.flatMap(c => Seq(c.mean, c.std))
      }
      assert(digest(row) == expectedTable2(b), shown(row))
    }
  }

  test("Table 2 has exactly the pinned rows") {
    assert(table2.map(_.bench).distinct.sorted == expectedTable2.keys.toSeq.sorted)
  }

  test("join and union search with 3 queries start no Spark job") {
    assert(searchJobs == 0)
  }

  for (m <- expectedSearch.keys.toSeq.sorted) {
    test(s"the F1@k row of $m keeps its exact bits") {
      val row = search.getOrElse(m, Seq.empty)
      assert(digest(row) == expectedSearch(m), shown(row))
    }
  }

  test("the search report has exactly the pinned methods") {
    assert(search.keys.toSeq.sorted == expectedSearch.keys.toSeq.sorted)
  }
}
