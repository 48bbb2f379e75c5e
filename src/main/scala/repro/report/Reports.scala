package repro.report

import org.apache.spark.sql.SparkSession

import repro.lake.Text
import repro.lakebench.{Benchmark, LakeBenchSuite, Stats}
import repro.models.{Baselines, PairFeaturizer, Runner, SketchFeaturizer, SketchMask}

/** Generators for the paper's evaluation tables. Each returns printable
  * lines (and structured cells for assertions); bench suites and the
  * spark-submit jobs share these.
  */
object Reports {

  case class Cell(bench: String, model: String, metric: String, mean: Double, std: Double)

  // ---------------------------------------------------------------- Table 1

  def table1(spark: SparkSession): Seq[String] = Stats.table1(spark, LakeBenchSuite.all)

  // ---------------------------------------------------------------- Table 2

  def table2(spark: SparkSession, seeds: Seq[Long] = Seq(0L, 1L, 2L, 3L, 4L),
             roster: Seq[PairFeaturizer] = Baselines.table2Roster,
             benches: Seq[Benchmark] = LakeBenchSuite.all): (Seq[String], Seq[Cell]) = {
    val cells = for (b <- benches; m <- roster) yield {
      val (mean, std) = Runner.evaluate(b.task, Runner.featurize(spark, m, b), seeds)
      Cell(b.name, m.name, Runner.metricName(b.task), mean, std)
    }
    (render(cells, roster.map(_.name)), cells)
  }

  private def render(cells: Seq[Cell], models: Seq[String]): Seq[String] = {
    val benches = cells.map(c => (c.bench, c.metric)).distinct
    val header = Text.format("%-22s", "Task") + models.map(Text.format(" | %-18s", _)).mkString
    header +: benches.map { case (b, metric) =>
      Text.format("%-17s (%s)", b, metric) + models.map { m =>
        val c = cells.find(x => x.bench == b && x.model == m).get
        Text.format(" | %5.2f ± %4.2f      ", c.mean, c.std)
      }.mkString
    }
  }

  // ------------------------------------------------------------ Tables 3, 4

  /** Single-sketch ablation (Table 3): header tokens + exactly one sketch
    * family, seed 0, over the seven non-TUS tasks.
    */
  def table3(spark: SparkSession): (Seq[String], Seq[Cell]) = ablation(spark,
    SketchMask(numerical = false, content = false) -> "MinHash only",
    SketchMask(minhash = false, content = false) -> "Numerical only",
    SketchMask(minhash = false, numerical = false) -> "Content only")

  /** Leave-one-sketch-out ablation (Table 4). */
  def table4(spark: SparkSession): (Seq[String], Seq[Cell]) = ablation(spark,
    SketchMask(minhash = false) -> "No MinHash",
    SketchMask(numerical = false) -> "No Numerical",
    SketchMask(content = false) -> "No Content")

  /** Each mask, then all sketches, at seed 0 on the ablation benchmarks:
    * one featurization per benchmark, each mask trained on a masked copy.
    */
  private def ablation(spark: SparkSession, masks: (SketchMask, String)*): (Seq[String], Seq[Cell]) = {
    val named = masks :+ (SketchMask() -> "TabSketchFM (all)")
    val cells = LakeBenchSuite.ablationSet.flatMap { b =>
      val fs = Runner.featurize(spark, SketchFeaturizer, b)
      named.map { case (mask, model) =>
        val (mean, std) = Runner.evaluate(b.task, mask(fs), Seq(0L))
        Cell(b.name, model, Runner.metricName(b.task), mean, std)
      }
    }
    (render(cells, named.map(_._2)), cells)
  }

  def cellOf(cells: Seq[Cell], bench: String, model: String): Double =
    cells.find(c => c.bench == bench && c.model == model).get.mean
}
