package repro

import java.util.Locale

import repro.core.{TableSketcher, Tokenizer}
import repro.lakebench.{Benchmark, GeneratorsSpec, Stats, StatsSpec}
import repro.models.{Baselines, Runner}
import repro.search.Embeddings

/** Every output that the program builds from text is the same under the
  * machine's default locale, under `de_DE` (decimal comma) and under
  * `tr_TR` (dotted and dotless i): the generated tables, the tokens of
  * their headers and cells, the pair vectors of all six featurizers, the
  * search embeddings and Table 1's printed lines. Each case computes its
  * output once per locale, set with `Locale.setDefault` and restored
  * after it; suites run one at a time, so no other test sees the switch.
  */
class LocaleSpec extends SparkSpec {

  private val others = Seq(Locale.forLanguageTag("de-DE"), Locale.forLanguageTag("tr-TR"))

  /** `body` with `l` as the default locale of every category. */
  private def under[A](l: Locale)(body: => A): A = {
    val (all, display, format) =
      (Locale.getDefault, Locale.getDefault(Locale.Category.DISPLAY), Locale.getDefault(Locale.Category.FORMAT))
    Locale.setDefault(l)
    try body
    finally {
      Locale.setDefault(all)
      Locale.setDefault(Locale.Category.DISPLAY, display)
      Locale.setDefault(Locale.Category.FORMAT, format)
    }
  }

  /** Computes the named parts of an output under the machine's locale,
    * then under each other locale, and fails naming every part and locale
    * where a value differs from the machine's.
    */
  private def assertLocaleFree(parts: => Seq[(String, Any)]): Unit = {
    val here = parts
    val differ = for {
      l <- others
      ((name, mine), (_, there)) <- here.zip(under(l)(parts))
      if there != mine
    } yield s"$name under $l"
    if (differ.nonEmpty) fail(differ.mkString("; "))
  }

  private def bits(vs: Iterable[Array[Double]]): Vector[Long] =
    vs.iterator.flatMap(_.iterator.map(java.lang.Double.doubleToRawLongBits)).toVector

  test("every generator builds the same tables") {
    assertLocaleFree(GeneratorsSpec.Small.suite().map(b => b.name -> b.tables))
  }

  test("Tokenizer gives the same tokens for every header and cell") {
    val texts = GeneratorsSpec.Small.suite().map { b =>
      b.name -> b.tables.values.toSeq.flatMap(t => t.description +: (t.columnNames ++ t.rows.flatten)).distinct
    }
    assertLocaleFree(texts.map { case (name, ts) => name -> ts.map(Tokenizer.tokenize) })
  }

  for ((name, generate) <- Seq[(String, () => Benchmark)](
         "TUS-SANTOS" -> (() => GeneratorsSpec.Small.tus()), "ECB Join" -> (() => GeneratorsSpec.Small.ecbJoin())))
    test(s"all six featurizers give the same pair-vector bits on $name") {
      assertLocaleFree {
        val b = generate()
        Baselines.table2Roster.map { fz =>
          val fs = Runner.featurize(spark, fz, b)
          fz.name -> bits(fs.xTrain ++ fs.xValid ++ fs.xTest)
        }
      }
    }

  test("the search embeddings of the TUS-SANTOS lake keep their bits") {
    assertLocaleFree {
      val tables = GeneratorsSpec.Small.tus().tables
      val sketches = TableSketcher.sketchCorpus(tables)
      val ids = tables.keys.toSeq.sorted
      Seq(
        "column embeddings" -> bits(ids.flatMap(id => Embeddings.columns(sketches(id), tables(id)))),
        "table embeddings" -> bits(ids.map(id => Embeddings.table(sketches(id), tables(id)))))
    }
  }

  test("Table 1 prints the same lines") {
    assertLocaleFree(Seq("Table 1" -> Stats.table1(spark, Seq(StatsSpec.small, StatsSpec.tiny))))
  }
}
