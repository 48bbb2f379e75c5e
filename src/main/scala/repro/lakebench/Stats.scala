package repro.lakebench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{Parallel, TypeInference}
import repro.lake.LakeTable

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
    * value does not depend on partitioning or grouping.
    */
  def aggregate(spark: SparkSession, metas: Seq[TableMeta]): DataFrame = {
    import spark.implicits._
    spark.createDataset(metas).groupBy($"benchmark").agg(
      count(lit(1))                 as "num_tables",
      round(avg($"rows"), 2)        as "avg_rows",
      round(avg($"cols"), 2)        as "avg_cols",
      round(sum($"nString") * lit(100.0) / sum($"cols"), 2) as "pct_string",
      round(sum($"nInt")    * lit(100.0) / sum($"cols"), 2) as "pct_int",
      round(sum($"nFloat")  * lit(100.0) / sum($"cols"), 2) as "pct_float",
      round(sum($"nDate")   * lit(100.0) / sum($"cols"), 2) as "pct_date",
    )
  }

  /** Table 1's header, then one line per benchmark in the order given (pair
    * counts from its splits), from one collected aggregation.
    */
  def table1(spark: SparkSession, benchmarks: Seq[Benchmark]): Seq[String] = {
    val metas = Parallel.map(benchmarks.flatMap(b => b.tables.values.map(b.name -> _))) { case (n, t) => meta(n, t) }
    val agg   = aggregate(spark, metas).collect().map(r => r.getAs[String]("benchmark") -> r).toMap
    f"${"Benchmark"}%-17s | ${"#Tables"}%8s | ${"AvgRows"}%9s | ${"AvgCols"}%8s | ${"Train"}%6s | ${"Test"}%5s | ${"Valid"}%5s | ${"Str%"}%6s | ${"Int%"}%5s | ${"Flt%"}%5s | ${"Date%"}%5s" +:
      benchmarks.map { b =>
        val r = agg(b.name)
        f"${b.name}%-17s | ${r.getAs[Long]("num_tables")}%8d | ${r.getAs[Double]("avg_rows")}%9.2f | " +
          f"${r.getAs[Double]("avg_cols")}%8.2f | ${b.train.size}%6d | ${b.test.size}%5d | ${b.valid.size}%5d | " +
          f"${r.getAs[Double]("pct_string")}%6.2f | ${r.getAs[Double]("pct_int")}%5.2f | " +
          f"${r.getAs[Double]("pct_float")}%5.2f | ${r.getAs[Double]("pct_date")}%5.2f"
      }
  }
}
