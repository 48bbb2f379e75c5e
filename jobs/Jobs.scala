package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.report.{Reports, SearchReport}

/** spark-submit entrypoints, one per reproduced table/figure:
  *
  * {{{
  * spark-submit --class repro.jobs.Table1Job target/scala-2.13/repro_2.13-*.jar
  * }}}
  */
object Jobs {

  /** Builds the session, prints the report's lines and stops the session. */
  private[jobs] def run(name: String)(report: SparkSession => Seq[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try report(spark).foreach(println)
    finally spark.stop()
  }
}

/** Table 1: LakeBench statistics. */
object Table1Job {
  def main(args: Array[String]): Unit = Jobs.run("tabsketchfm-table1")(Reports.table1)
}

/** Table 2: six models on eight tasks (5 seeds; pass a seed count to shrink). */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val seeds = (0L until args.headOption.map(_.toLong).getOrElse(5L)).toSeq
    Jobs.run("tabsketchfm-table2")(Reports.table2(_, seeds)._1)
  }
}

/** Table 3: single-sketch ablation. */
object Table3Job {
  def main(args: Array[String]): Unit = Jobs.run("tabsketchfm-table3")(Reports.table3(_)._1)
}

/** Table 4: leave-one-sketch-out ablation. */
object Table4Job {
  def main(args: Array[String]): Unit = Jobs.run("tabsketchfm-table4")(Reports.table4(_)._1)
}

/** Figures 8–10 analogue: join and union search F1@k, join rows first. */
object SearchJob {
  def main(args: Array[String]): Unit = Jobs.run("tabsketchfm-search")(spark =>
    SearchReport.joinSearch(spark)._1 ++ SearchReport.unionSearch(spark)._1)
}
