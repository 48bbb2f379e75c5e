package repro

import java.nio.file.{Files, Path, Paths}

import scala.jdk.CollectionConverters._

import org.scalatest.funsuite.AnyFunSuite

/** Layering guard over the main sources (DESIGN §4): the substrates
  * (`core`, `lake`, `nn`) use no code from `models`, `search` or `report`,
  * `core` and `lake` use none from `nn`, and `search` uses none from
  * `models`. An import and a fully qualified name both count as a use;
  * comments do not. `search` also names no Spark `Dataset` or `DataFrame`,
  * so its indexes stay plain driver-side values, and `lake` and `nn` name
  * nothing from `org.apache.spark`.
  */
class LayeringSpec extends AnyFunSuite {

  private val root: Path = Paths.get("src", "main", "scala", "repro")

  private val forbidden: Seq[(String, Seq[String])] = Seq(
    "core"   -> Seq("models", "search", "report"),
    "lake"   -> Seq("models", "search", "report"),
    "nn"     -> Seq("models", "search", "report"),
    "search" -> Seq("models"),
    "core"   -> Seq("nn"),
    "lake"   -> Seq("nn"),
  )

  private def withoutComments(src: String): String =
    src.replaceAll("(?s)/\\*.*?\\*/", " ").replaceAll("//[^\n]*", "")

  /** The packages among `layers` that Scala source `src` uses outside its
    * comments, as `repro.layer` or inside `import repro.{...}`.
    */
  private def uses(src: String, layers: Seq[String]): Seq[String] = {
    val code = withoutComments(src)
    layers.filter { l =>
      s"\\brepro\\s*\\.\\s*$l\\b".r.findFirstIn(code).isDefined ||
      s"\\brepro\\s*\\.\\s*\\{[^}]*\\b$l\\b".r.findFirstIn(code).isDefined
    }
  }

  /** The identifiers containing `Dataset` or `DataFrame` that `src` names outside its comments. */
  private def sparkTables(src: String): Seq[String] =
    "\\w*(Dataset|DataFrame)\\w*".r.findAllIn(withoutComments(src)).toSeq.distinct

  /** The names of `org.apache.spark` that `src` uses outside its comments:
    * qualified names, and imports through `org.apache.{...}`.
    */
  private def sparkNames(src: String): Seq[String] =
    "\\borg\\s*\\.\\s*apache\\s*\\.\\s*(spark\\b|\\{[^}]*\\bspark\\b)".r.findAllIn(withoutComments(src)).toSeq.distinct

  /** Fails naming each main source file of `layer` in which `hits` finds something. */
  private def assertNone(layer: String)(hits: String => Seq[String]): Unit = {
    val dir = root.resolve(layer)
    assert(Files.isDirectory(dir), s"$dir not found from ${Paths.get("").toAbsolutePath}")
    val walk = Files.walk(dir)
    val files = try walk.iterator.asScala.filter(_.toString.endsWith(".scala")).toList finally walk.close()
    assert(files.nonEmpty, s"no sources under repro.$layer")
    val offenders = files.flatMap { f =>
      val hit = hits(new String(Files.readAllBytes(f), "UTF-8"))
      if (hit.isEmpty) None else Some(s"$f: ${hit.mkString(", ")}")
    }
    assert(offenders.isEmpty, offenders.mkString("; "))
  }

  test("the guard sees imports and qualified names, not comments") {
    val layers = Seq("models", "search", "report")
    assert(uses("import repro.models.Parallel", layers) == Seq("models"))
    assert(uses("val xs = repro.models.Parallel.map(ys)(f)", layers) == Seq("models"))
    assert(uses("import repro.{report, search => s}", layers) == Seq("search", "report"))
    assert(uses("import repro.core.Parallel // not repro.models.Parallel", layers).isEmpty)
    assert(uses("/** See [[repro.models.Runner]]. */\nobject A", layers).isEmpty)
    assert(uses("import repro.modelsx.A", layers).isEmpty)
  }

  test("the Spark-table guard sees code, not comments") {
    assert(sparkTables("import org.apache.spark.sql.{DataFrame, SparkSession}") == Seq("DataFrame"))
    assert(sparkTables("def f(ds: Dataset[Row]) = spark.createDataset(rows)") == Seq("Dataset", "createDataset"))
    assert(sparkTables("/** Not a `Dataset`. */\nval datasets = Seq(dataFrame) // nor a DataFrame").isEmpty)
  }

  test("the Spark guard sees imports and qualified names, not comments") {
    assert(sparkNames("import org.apache.spark.sql.SparkSession") == Seq("org.apache.spark"))
    assert(sparkNames("def f(r: org . apache . spark.sql.Row) = r").nonEmpty)
    assert(sparkNames("import org.apache.{commons, spark => s}").nonEmpty)
    assert(sparkNames("/** Unlike [[org.apache.spark.sql.Dataset]]. */\nval spark = 1 // org.apache.spark").isEmpty)
    assert(sparkNames("import org.apache.commons.io.FileUtils\nimport org.apache.sparkle.X").isEmpty)
  }

  test("repro.search names no Spark Dataset or DataFrame")(assertNone("search")(sparkTables))

  for (layer <- Seq("lake", "nn"))
    test(s"repro.$layer names nothing from org.apache.spark")(assertNone(layer)(sparkNames))

  for ((layer, banned) <- forbidden)
    test(s"repro.$layer uses nothing from ${banned.map("repro." + _).mkString(", ")}")(assertNone(layer)(uses(_, banned)))
}
