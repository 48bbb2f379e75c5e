package repro.lakebench

import repro.{Oracle, SparkSpec}
import repro.lake.LakeTable
import repro.report.Reports

object StatsSpec {

  private def benchmark(name: String, tables: LakeTable*): Benchmark =
    Benchmark(name, BinaryTask, tables.map(t => t.id -> t).toMap,
      Seq(PairExample(tables.head.id, tables.last.id, Array(0.0))), Seq.empty, Seq.empty)

  lazy val tiny: Benchmark = benchmark("Tiny",
    LakeTable("x.csv", "", Seq("s", "i"), Seq(Seq("a", "1"), Seq("b", "2"))),
    LakeTable("y.csv", "", Seq("f", "d", "s2"), Seq(Seq("1.5", "2020-01-01", "p"), Seq("2.5", "2020-02-01", "q"))))

  // 3 tables, 7 rows, 6 columns: 2 string, 2 int, 1 float, 1 date.
  lazy val small: Benchmark = benchmark("Small",
    LakeTable("a.csv", "", Seq("s"), Seq(Seq("x"))),
    LakeTable("b.csv", "", Seq("i", "f"), Seq(Seq("1", "0.5"), Seq("2", "1.5"))),
    LakeTable("c.csv", "", Seq("s", "d", "i"), (1 to 4).map(i => Seq(s"v$i", s"2021-0$i-01", i.toString))))

  lazy val wee: Benchmark = benchmark("Wee", LakeTable("w.csv", "", Seq("i"), Seq(Seq("7"))))

  // 2 tables, 3 rows, no column at all.
  lazy val empty: Benchmark = benchmark("Empty",
    LakeTable("e.csv", "", Seq.empty, Seq(Seq.empty, Seq.empty)), LakeTable("o.csv", "", Seq.empty, Seq(Seq.empty)))
}

class StatsSpec extends SparkSpec {
  import StatsSpec._

  private def metas(bs: Benchmark*): Seq[Stats.TableMeta] =
    for (b <- bs; t <- b.tables.values.toSeq) yield Stats.meta(b.name, t)

  test("meta infers per-table type counts") {
    val m = Stats.meta("Tiny", tiny.tables("y.csv"))
    assert(m.rows == 2 && m.cols == 3)
    assert(m.nFloat == 1 && m.nDate == 1 && m.nString == 1 && m.nInt == 0)
  }

  test("aggregate computes Table 1 style numbers") {
    val row = Stats.aggregate(spark, metas(tiny)).collect().head
    assert(row.getAs[Long]("num_tables") == 2)
    assert(math.abs(row.getAs[Double]("avg_rows") - 2.0) < 1e-9)
    assert(math.abs(row.getAs[Double]("avg_cols") - 2.5) < 1e-9)
    // 5 columns total: 2 string, 1 int, 1 float, 1 date
    assert(math.abs(row.getAs[Double]("pct_string") - 40.0) < 1e-9)
    assert(math.abs(row.getAs[Double]("pct_int") - 20.0) < 1e-9)
  }

  test("aggregation agrees with the DuckDB oracle") {
    import spark.implicits._
    val ms = metas(tiny, small, empty)
    // The oracle loads every column as VARCHAR.
    val pcts = Seq("nString" -> "pct_string", "nInt" -> "pct_int", "nFloat" -> "pct_float", "nDate" -> "pct_date")
      .map { case (n, alias) =>
        s"CASE WHEN sum(CAST(cols AS BIGINT)) = 0 THEN 0.0 " +
          s"ELSE round(CAST(sum(CAST($n AS BIGINT)) AS DOUBLE) * 100.0 / sum(CAST(cols AS BIGINT)), 2) END AS $alias"
      }
    Oracle.assertEquivalent(
      Stats.aggregate(spark, ms),
      "SELECT benchmark, count(*) AS num_tables, round(avg(CAST(rows AS DOUBLE)), 2) AS avg_rows, " +
        s"round(avg(CAST(cols AS DOUBLE)), 2) AS avg_cols, ${pcts.mkString(", ")} FROM metas GROUP BY benchmark",
      "metas" -> spark.createDataset(ms).toDF())
  }

  test("table1 renders its header, then one line per benchmark in the order given") {
    val lines = Stats.table1(spark, Seq(small, tiny))
    assert(lines.map(_.takeWhile(_ != ' ')) == Seq("Benchmark", "Small", "Tiny"))
    assert(lines.forall(_.split('|').length == 11))
    assert(lines(1).endsWith("|  33.33 | 33.33 | 16.67 | 16.67"))
  }

  test("table1 prints 0.00 type shares for a benchmark whose tables have no column") {
    assert(Stats.table1(spark, Seq(empty))(1) ==
      "Empty             |        2 |      1.50 |     0.00 |      1 |     0 |     0 |   0.00 |  0.00 |  0.00 |  0.00")
  }

  test("table1 runs as many Spark jobs for three benchmarks as for one") {
    val one = sparkJobsDuring(Stats.table1(spark, Seq(wee)))
    assert(one > 0)
    assert(sparkJobsDuring(Stats.table1(spark, Seq(wee, tiny, small))) == one)
  }

  // The lines `Table1Bench` prints. A change that means to move a number
  // updates them and says why.
  test("Table 1 of the default suite keeps every printed line") {
    assert(Reports.table1(spark) == Seq(
      "Benchmark         |  #Tables |   AvgRows |  AvgCols |  Train |  Test | Valid |   Str% |  Int% |  Flt% | Date%",
      "TUS-SANTOS        |      432 |     89.98 |     4.45 |   2240 |   280 |   280 |  48.80 | 16.16 | 19.65 | 15.38",
      "Wiki Union        |      882 |     69.66 |     3.74 |   3360 |   420 |   420 |  38.61 | 30.36 | 31.03 |  0.00",
      "ECB Union         |      650 |    105.57 |    15.04 |   1680 |   210 |   210 |  73.66 |  6.14 | 13.55 |  6.65",
      "Wiki Jaccard      |      882 |     69.66 |     3.74 |   1360 |   170 |   170 |  38.61 | 30.36 | 31.03 |  0.00",
      "Wiki Containment  |      882 |     69.66 |     3.74 |   1680 |   210 |   210 |  38.61 | 30.36 | 31.03 |  0.00",
      "Spider-OpenData   |     1440 |    104.30 |     4.55 |   1152 |   144 |   144 |  30.39 | 29.99 | 19.82 | 19.79",
      "ECB Join          |       64 |    427.53 |     9.28 |   1612 |   203 |   201 |  72.22 |  6.23 | 10.77 | 10.77",
      "CKAN Subset       |     3000 |    476.02 |    11.46 |   1600 |   200 |   200 |   8.73 | 50.19 | 41.08 |  0.00"))
  }
}
