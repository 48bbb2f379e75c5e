package repro.lakebench

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{Parallel, TypeInference}
import repro.lake.{LakeTable, Text}

/** Table 1: benchmark cardinalities and the column data-type distribution.
  * Type inference runs on the driver's `Parallel` pool, one metadata row
  * per (benchmark, table); one Spark aggregation over those rows gives every
  * benchmark's numbers. No cell reaches Spark.
  */
object Stats {

  case class TableMeta(benchmark: String, tableId: String, rows: Long, cols: Long,
                       nString: Long, nInt: Long, nFloat: Long, nDate: Long)

  def meta(benchmark: String, t: LakeTable): TableMeta = {
    val types = t.columnNames.indices.map(i => TypeInference.infer(t.rows.view.map(_(i))))
    TableMeta(benchmark, t.id, t.numRows.toLong, t.numCols.toLong,
      types.count(_ == TypeInference.StringT).toLong,
      types.count(_ == TypeInference.IntT).toLong,
      types.count(_ == TypeInference.FloatT).toLong,
      types.count(_ == TypeInference.DateT).toLong)
  }

  /** One aggregated row per benchmark over the metadata rows. Each column
    * is a count, or a sum or mean of integer counts below 2^53, so its
    * value does not depend on partitioning or grouping. A benchmark whose
    * tables have no column at all has every type share 0.
    */
  def aggregate(spark: SparkSession, metas: Seq[TableMeta]): DataFrame = {
    import spark.implicits._
    def pct(n: Column): Column =
      when(sum($"cols") === 0, lit(0.0)).otherwise(round(sum(n) * lit(100.0) / sum($"cols"), 2))
    spark.createDataset(metas).groupBy($"benchmark").agg(
      count(lit(1))                 as "num_tables",
      round(avg($"rows"), 2)        as "avg_rows",
      round(avg($"cols"), 2)        as "avg_cols",
      pct($"nString")               as "pct_string",
      pct($"nInt")                  as "pct_int",
      pct($"nFloat")                as "pct_float",
      pct($"nDate")                 as "pct_date",
    )
  }

  /** Table 1's header, then one line per benchmark in the order given (pair
    * counts from its splits), from one collected aggregation.
    */
  def table1(spark: SparkSession, benchmarks: Seq[Benchmark]): Seq[String] = {
    val metas = Parallel.map(benchmarks.flatMap(b => b.tables.values.map(b.name -> _))) { case (n, t) => meta(n, t) }
    val agg   = aggregate(spark, metas).collect().map(r => r.getAs[String]("benchmark") -> r).toMap
    Text.format("%-17s | %8s | %9s | %8s | %6s | %5s | %5s | %6s | %5s | %5s | %5s", "Benchmark", "#Tables",
                "AvgRows", "AvgCols", "Train", "Test", "Valid", "Str%", "Int%", "Flt%", "Date%") +:
      benchmarks.map { b =>
        val r = agg(b.name)
        Text.format("%-17s | %8d | %9.2f | %8.2f | %6d | %5d | %5d | %6.2f | %5.2f | %5.2f | %5.2f", b.name,
          r.getAs[Long]("num_tables"), r.getAs[Double]("avg_rows"), r.getAs[Double]("avg_cols"),
          b.train.size, b.test.size, b.valid.size, r.getAs[Double]("pct_string"), r.getAs[Double]("pct_int"),
          r.getAs[Double]("pct_float"), r.getAs[Double]("pct_date"))
      }
  }
}
