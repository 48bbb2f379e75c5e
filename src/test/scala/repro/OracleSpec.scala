package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** `Oracle.assertEquivalent` loads several input frames into DuckDB,
  * accepts a Spark result that matches the SQL, and rejects one that does
  * not.
  */
class OracleSpec extends SparkSpec {

  private lazy val cities: DataFrame = {
    import spark.implicits._
    Seq(("1", "Vienna"), ("2", "Graz"), ("3", "Linz")).toDF("city_id", "city")
  }

  private lazy val sales: DataFrame = {
    import spark.implicits._
    Seq(("1", 10), ("1", 5), ("2", 7), ("4", 1)).toDF("city_id", "qty")
  }

  private lazy val totals: DataFrame =
    sales.join(cities, "city_id").groupBy("city").agg(sum("qty") as "total")

  private val totalsSql =
    "SELECT city, sum(CAST(qty AS BIGINT)) AS total " +
      "FROM sales JOIN cities ON sales.city_id = cities.city_id GROUP BY city"

  test("a two-table join matches DuckDB") {
    Oracle.assertEquivalent(totals, totalsSql, "sales" -> sales, "cities" -> cities)
  }

  test("a wrong row is rejected") {
    val wrong = totals.withColumn("total", when(col("city") === "Graz", lit(8L)).otherwise(col("total")))
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, totalsSql, "sales" -> sales, "cities" -> cities)
    }
    assert(e.getMessage.contains("result mismatch"), e.getMessage)
  }

  test("an output column that is not aliased is rejected") {
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(sales.groupBy("city_id").count(),
        "SELECT city_id, count(*) FROM sales GROUP BY city_id", "sales" -> sales)
    }
    assert(e.getMessage.contains("alias every output column"), e.getMessage)
  }
}
