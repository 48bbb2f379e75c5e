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
  * nothing from `org.apache.spark`. No main source, and nothing in `jobs/`,
  * formats text or folds case with the JVM's default locale: those calls
  * go through `repro.lake.Text`, which uses `Locale.ROOT`. No main source
  * reads an environment variable or a system property, and `jobs/` reads
  * only `SPARK_MASTER`, the deployment's Spark master. Every search ranks
  * through `Ranking.lake`: no main source but `Ranking.scala` uses
  * `Ranking.top`, and in `search` only `Ranking.scala` and
  * `Embeddings.scala` map on the `Parallel` pool.
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

  /** The default-locale text calls that `src` makes outside its comments:
    * the `f` interpolator, `format` or `formatted` on a string,
    * `String.format` without a `Locale` first, and `toLowerCase` or
    * `toUpperCase` without an argument. `Text.format` is the allowed form.
    */
  private def localeCalls(src: String): Seq[String] = {
    val code = withoutComments(src)
    val interpolators = "(?<![\\w$%.])f\"".r.findAllIn(code).toSeq
    val formats = "(\\w*)\\s*\\.\\s*(format|formatted)\\s*\\(\\s*(\\w*)".r.findAllMatchIn(code).filterNot { m =>
      m.group(2) == "format" && (m.group(1) == "Text" || m.group(1) == "String" && m.group(3) == "Locale")
    }.map(_.matched).toSeq
    val folds = "\\.\\s*to(Lower|Upper)Case\\b(?!\\s*\\(\\s*[^)\\s])".r.findAllIn(code).toSeq
    (interpolators ++ formats ++ folds).distinct
  }

  /** The environment variables and system properties that `src` reads
    * outside its comments, through `sys.env`, `sys.props`, `System.getenv`
    * or `System.getProperty`, except reads of an environment variable named
    * in `allowed`.
    */
  private def settingReads(src: String, allowed: Set[String] = Set.empty): Seq[String] =
    ("\\b(?:sys\\s*\\.\\s*(env|props)\\b(?:\\s*\\.\\s*\\w+)?" +
     "|System\\s*\\.\\s*(getenv|getProperty|getProperties)\\b)(?:\\s*\\(\\s*\"([^\"]*)\")?").r
      .findAllMatchIn(withoutComments(src)).filterNot { m =>
        (m.group(1) == "env" || m.group(2) == "getenv") && m.group(3) != null && allowed(m.group(3))
      }.map(_.matched).toSeq.distinct

  /** The uses of `name`, a dotted path such as `Ranking.top`, that `src`
    * makes outside its comments, qualified or not.
    */
  private def usesOf(name: String)(src: String): Seq[String] =
    name.split('.').map(java.util.regex.Pattern.quote).mkString("\\b", "\\s*\\.\\s*", "\\b").r
      .findAllIn(withoutComments(src)).toSeq.distinct

  /** Fails naming each Scala source file under `dir`, other than those
    * named in `except`, in which `hits` finds something.
    */
  private def assertNone(dir: Path, except: Set[String] = Set.empty)(hits: String => Seq[String]): Unit = {
    assert(Files.isDirectory(dir), s"$dir not found from ${Paths.get("").toAbsolutePath}")
    val walk = Files.walk(dir)
    val files = try walk.iterator.asScala.filter(_.toString.endsWith(".scala")).toList finally walk.close()
    assert(except.forall(n => files.exists(_.getFileName.toString == n)), s"not all of $except under $dir")
    assert(files.nonEmpty, s"no sources under $dir")
    val offenders = files.filterNot(f => except(f.getFileName.toString)).flatMap { f =>
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

  test("the locale guard sees default-locale formatting and case folding, not comments") {
    assert(localeCalls("val s = f\"$x%.2f\"") == Seq("f\""))
    assert(localeCalls("log.info(f\"${n}%d rows\" + s\"done\")") == Seq("f\""))
    assert(localeCalls("\"%.2f\".format(x)").nonEmpty)
    assert(localeCalls("\"%.2f\".formatted(x)").nonEmpty)
    assert(localeCalls("String.format(\"%d\", n)").nonEmpty)
    assert(localeCalls("java.lang.String.format(Locale.ROOT, \"%d\", n)").isEmpty)
    assert(localeCalls("Text.format(\"%.1f\", v) + repro.lake.Text.format(\"%d\", n)").isEmpty)
    assert(localeCalls("names.map(_.toLowerCase)").nonEmpty)
    assert(localeCalls("s.toUpperCase()").nonEmpty)
    assert(localeCalls("s.toLowerCase(Locale.ROOT) + t.toUpperCase( Locale.ROOT )").isEmpty)
    assert(localeCalls("val golf = Seq(\"golf\", \"%.2f\", \"%f\", s\"$f\")").isEmpty)
    assert(localeCalls("/** Not `f\"$x%.2f\"` nor \"x\".format(y). */\nval n = 1 // s.toLowerCase").isEmpty)
  }

  test("the settings guard sees environment and property reads, not comments") {
    val master = "sys.env.getOrElse(\"SPARK_MASTER\", \"local[*]\")"
    assert(settingReads(master).nonEmpty)
    assert(settingReads(master, Set("SPARK_MASTER")).isEmpty)
    assert(settingReads("sys.env(\"SPARK_MASTER\")", Set("SPARK_MASTER")).isEmpty)
    assert(settingReads("sys.env.get(\"SPARK_SHUFFLE_PARTITIONS\")", Set("SPARK_MASTER")).nonEmpty)
    assert(settingReads("sys.props(\"SPARK_MASTER\")", Set("SPARK_MASTER")).nonEmpty)
    assert(settingReads("val e = scala.sys.env").nonEmpty)
    assert(settingReads("System.getenv(\"HOME\") + System.getenv()").size == 2)
    assert(settingReads("sys.props.get(\"user.dir\")").nonEmpty)
    assert(settingReads("System.getProperty(\"java.home\")").nonEmpty)
    assert(settingReads("System . getProperties").nonEmpty)
    assert(settingReads("/** Reads no sys.env. */\nval environment = mysys.envs // System.getenv(\"X\")").isEmpty)
  }

  test("the ranking guard sees uses of a name, not comments") {
    assert(usesOf("Ranking.top")("qt -> Ranking.top(best, k)") == Seq("Ranking.top"))
    assert(usesOf("Ranking.top")("repro.search.Ranking . top(xs, 3)").nonEmpty)
    assert(usesOf("Parallel.map")("val e = Parallel.map(ids.toSeq)(f)").nonEmpty)
    assert(usesOf("Ranking.top")("Ranking.topK(xs) + MyRanking.top(xs) + Ranking.lake(ids, q, k)(f)").isEmpty)
    assert(usesOf("Ranking.top")("/** Ranked by `Ranking.top`. */\nval n = 1 // Ranking.top(best, k)").isEmpty)
  }

  test("in src/main only Ranking.scala uses Ranking.top")(
    assertNone(Paths.get("src", "main"), Set("Ranking.scala"))(usesOf("Ranking.top")))

  test("in repro.search only Ranking.scala and Embeddings.scala use Parallel.map")(
    assertNone(root.resolve("search"), Set("Ranking.scala", "Embeddings.scala"))(usesOf("Parallel.map")))

  test("src/main reads no environment variable or system property")(
    assertNone(Paths.get("src", "main"))(settingReads(_)))

  test("jobs reads no setting but SPARK_MASTER")(assertNone(Paths.get("jobs"))(settingReads(_, Set("SPARK_MASTER"))))

  test("repro.search names no Spark Dataset or DataFrame")(assertNone(root.resolve("search"))(sparkTables))

  for (layer <- Seq("lake", "nn"))
    test(s"repro.$layer names nothing from org.apache.spark")(assertNone(root.resolve(layer))(sparkNames))

  for ((layer, banned) <- forbidden)
    test(s"repro.$layer uses nothing from ${banned.map("repro." + _).mkString(", ")}")(
      assertNone(root.resolve(layer))(uses(_, banned)))

  for (dir <- Seq(Paths.get("src", "main"), Paths.get("jobs")))
    test(s"$dir formats and folds case only through repro.lake.Text")(assertNone(dir)(localeCalls))
}
