package repro.models

import repro.SparkSpec
import repro.core.TableSketcher
import repro.lake.{LakeTable, Text}

/** Pins the exact bits of every pair featurizer's vectors on a few fixed
  * table pairs, so a rewrite of the shared feature code must keep every
  * floating-point operation in the same order. The vectors are 32–129
  * doubles wide, so each is pinned by the SHA-256 of its raw bits (first
  * 16 hex digits); a mismatch prints the full vector.
  */
class PairFeatureBitsSpec extends SparkSpec {

  private def rows(n: Int)(f: Int => Seq[String]): Seq[Seq[String]] = (0 until n).map(f)

  /** Shared headers in different case and order, some numeric and some text. */
  private val sharedA = LakeTable("shared_a.csv", "city populations by year",
    Seq("City", "Pop", "Year", "note"),
    rows(40)(i => Seq(s"city$i", (1000 + 37 * i).toString, (1990 + i % 7).toString, s"entry $i of the census")))
  private val sharedB = LakeTable("shared_b.csv", "population of each city",
    Seq("city", "pop", "Founded"),
    rows(30)(i => Seq(s"city${i + 20}", (1000 + 41 * i).toString, s"${1500 + 3 * i}-01-01")))

  /** Headers that differ only in case inside one table, with blank, null
    * and mixed numeric/text cells.
    */
  private val caseA = LakeTable("case_a.csv", "", Seq("Code", "code", "Value", "Label"),
    rows(25)(i => Seq(s"C$i", if (i % 5 == 0) null else s"c${i % 9}",
                      if (i % 4 == 0) "n/a" else Text.format("%.2f", i * 1.25), if (i % 3 == 0) " " else s"label ${i % 6}")))
  private val caseB = LakeTable("case_b.csv", "codes and values", Seq("CODE", "value", "Unit"),
    rows(18)(i => Seq(s"C${i * 2}", (i * 3).toString, if (i % 2 == 0) "kg" else null)))

  /** More shared headers (40) than shared-name slots (32), in another order. */
  private val wideNames = (0 until 40).map(i => s"dim_$i")
  private val wideA = LakeTable("wide_a.csv", "wide table", wideNames,
    rows(6)(r => wideNames.indices.map(c => (r * c).toString)))
  private val wideB = LakeTable("wide_b.csv", "another wide table", wideNames.reverse :+ "extra",
    rows(9)(r => (wideNames.indices.map(c => (r + c).toString) :+ s"x$r")))

  /** Two tables sharing 16 full rows (one with a blank cell on one side and
    * a null on the other), so every content feature is non-zero.
    */
  private def order(i: Int): Seq[String] = Seq(s"o$i", s"region ${i % 4}", (12 * i + 5).toString)
  private val rowsA = LakeTable("rows_a.csv", "orders by region", Seq("order", "region", "amount"),
    rows(30)(order) :+ Seq("o99", "", "17"))
  private val rowsB = LakeTable("rows_b.csv", "regional orders", Seq("Order", "Region", "Amount"),
    rows(24)(i => order(i + 15)) :+ Seq("o99", null, "17"))

  private val pairs: Seq[(String, LakeTable, LakeTable)] = Seq(
    ("shared", sharedA, sharedB),
    ("case-colliding", caseA, caseB),
    ("wide", wideA, wideB),
    ("row-sharing", rowsA, rowsB),
  )

  private lazy val corpus: Map[String, LakeTable] =
    pairs.flatMap { case (_, a, b) => Seq(a.id -> a, b.id -> b) }.toMap

  private def hex(xs: Array[Double]): Seq[String] =
    xs.toSeq.map(x => java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(x)))

  private def digest(xs: Array[Double]): String = {
    val buf = java.nio.ByteBuffer.allocate(8 * xs.length)
    xs.foreach(x => buf.putLong(java.lang.Double.doubleToRawLongBits(x)))
    java.security.MessageDigest.getInstance("SHA-256").digest(buf.array())
      .take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  private def sketchFeatures(mask: SketchMask)(a: LakeTable, b: LakeTable): Array[Double] =
    mask(TabSketchFm.features(TableSketcher.sketch(a), TableSketcher.sketch(b)))

  private def prepared(fz: PairFeaturizer)(a: LakeTable, b: LakeTable): Array[Double] =
    fz.prepare(spark, corpus)(a.id, b.id)

  private val featurizers: Seq[(String, (LakeTable, LakeTable) => Array[Double])] = Seq(
    "TabSketchFM"                -> sketchFeatures(SketchMask()),
    "TabSketchFM MinHash only"   -> sketchFeatures(SketchMask(numerical = false, content = false)),
    "TabSketchFM numerical only" -> sketchFeatures(SketchMask(minhash = false, content = false)),
    "TabSketchFM content only"   -> sketchFeatures(SketchMask(minhash = false, numerical = false)),
    "TabSketchFM w/o MinHash"    -> sketchFeatures(SketchMask(minhash = false)),
    "TabSketchFM w/o numerical"  -> sketchFeatures(SketchMask(numerical = false)),
    "TabSketchFM w/o content"    -> sketchFeatures(SketchMask(content = false)),
    "Vanilla BERT"               -> prepared(Baselines.vanillaBert),
    "TUTA"                       -> prepared(Baselines.tuta),
    "TaBERT"                     -> prepared(Baselines.tabert),
    "TAPAS"                      -> prepared(Baselines.tapas),
    "TABBIE"                     -> prepared(Baselines.tabbie),
  )

  // (featurizer, pair) -> (width, digest), taken before the header block
  // and the shared-name slots were merged into one helper. The masked
  // TabSketchFM vectors were taken while the featurizer itself left the
  // disabled groups' features uncomputed and zero. The row-sharing pair's
  // digests were taken with each mask zeroing columns of the full vector.
  private val expected: Map[(String, String), (Int, String)] = Map(
    ("TabSketchFM", "shared") -> (129, "8170ce3659cad71a"),
    ("TabSketchFM", "case-colliding") -> (129, "d21f4567863073a7"),
    ("TabSketchFM", "wide") -> (129, "57e1cb73a1a25fa2"),
    ("TabSketchFM MinHash only", "shared") -> (129, "ee019a71e4e0c4de"),
    ("TabSketchFM MinHash only", "case-colliding") -> (129, "2fc6c02d007c43e0"),
    ("TabSketchFM MinHash only", "wide") -> (129, "8a30bcea2119ba2b"),
    ("TabSketchFM numerical only", "shared") -> (129, "00b0b6827940bdbc"),
    ("TabSketchFM numerical only", "case-colliding") -> (129, "ab0d78548ed6ddfb"),
    ("TabSketchFM numerical only", "wide") -> (129, "6814408f50c09e32"),
    ("TabSketchFM content only", "shared") -> (129, "4f8e2533ca30b222"),
    ("TabSketchFM content only", "case-colliding") -> (129, "cfc9e0dafc13d647"),
    ("TabSketchFM content only", "wide") -> (129, "27f379909b4357a7"),
    ("TabSketchFM w/o MinHash", "shared") -> (129, "00b0b6827940bdbc"),
    ("TabSketchFM w/o MinHash", "case-colliding") -> (129, "ab0d78548ed6ddfb"),
    ("TabSketchFM w/o MinHash", "wide") -> (129, "6814408f50c09e32"),
    ("TabSketchFM w/o numerical", "shared") -> (129, "ee019a71e4e0c4de"),
    ("TabSketchFM w/o numerical", "case-colliding") -> (129, "2fc6c02d007c43e0"),
    ("TabSketchFM w/o numerical", "wide") -> (129, "8a30bcea2119ba2b"),
    ("TabSketchFM w/o content", "shared") -> (129, "8170ce3659cad71a"),
    ("TabSketchFM w/o content", "case-colliding") -> (129, "d21f4567863073a7"),
    ("TabSketchFM w/o content", "wide") -> (129, "57e1cb73a1a25fa2"),
    ("Vanilla BERT", "shared") -> (38, "4d00209edc5ae9c1"),
    ("Vanilla BERT", "case-colliding") -> (38, "5648c1074ceb95c7"),
    ("Vanilla BERT", "wide") -> (38, "5865269bee4bc37e"),
    ("TUTA", "shared") -> (79, "7e9f0be9805fa454"),
    ("TUTA", "case-colliding") -> (79, "b43fbbc2c05fdfd1"),
    ("TUTA", "wide") -> (79, "a041fa7ce927bfd3"),
    ("TaBERT", "shared") -> (76, "dd4bfba763dc1801"),
    ("TaBERT", "case-colliding") -> (76, "85603d349f7442fc"),
    ("TaBERT", "wide") -> (76, "8d866a42b6b03664"),
    ("TAPAS", "shared") -> (32, "c78c9c2643e1e703"),
    ("TAPAS", "case-colliding") -> (32, "a514fc9868752e6d"),
    ("TAPAS", "wide") -> (32, "0286874982a30b86"),
    ("TABBIE", "shared") -> (32, "4fb5d00d5f700d6f"),
    ("TABBIE", "case-colliding") -> (32, "3d237a4ba1ec2d9a"),
    ("TABBIE", "wide") -> (32, "7b28af4eaa40a091"),
    ("TabSketchFM", "row-sharing") -> (129, "772710bf4f9d69bd"),
    ("TabSketchFM MinHash only", "row-sharing") -> (129, "fe610b208888c690"),
    ("TabSketchFM numerical only", "row-sharing") -> (129, "facd29c6c38d2955"),
    ("TabSketchFM content only", "row-sharing") -> (129, "1d1024f22b02045b"),
    ("TabSketchFM w/o MinHash", "row-sharing") -> (129, "f592f96fc33a15b6"),
    ("TabSketchFM w/o numerical", "row-sharing") -> (129, "e0bc0130ef8a1b81"),
    ("TabSketchFM w/o content", "row-sharing") -> (129, "563e3281df54f950"),
    ("Vanilla BERT", "row-sharing") -> (38, "cff564d45afeb730"),
    ("TUTA", "row-sharing") -> (79, "2e3f40f526f407a6"),
    ("TaBERT", "row-sharing") -> (76, "9ec8109cfa3b71ce"),
    ("TAPAS", "row-sharing") -> (32, "3f1ee9a0ea9502d0"),
    ("TABBIE", "row-sharing") -> (32, "6ddca6d1c596741a"),
  )

  for ((fzName, f) <- featurizers; (pairName, a, b) <- pairs) {
    test(s"$fzName vector of the $pairName pair keeps its exact bits") {
      val v = f(a, b)
      assert(expected.get((fzName, pairName)).contains((v.length, digest(v))),
        s"(${v.length}, ${digest(v)}) ${hex(v).mkString(" ")}")
    }
  }

  test("TabSketchFM's header block equals ValueFeaturizer.headerFeatures on unbounded views") {
    val unbounded = ValueFeaturizer.Budget(Int.MaxValue, Int.MaxValue, 0)
    for ((pairName, a, b) <- pairs) {
      val fromSketch = sketchFeatures(SketchMask())(a, b).take(TabSketchFm.HeaderDim)
      val fromView = PairFeatures.headerFeatures(ValueFeaturizer.view(a, unbounded).header,
                                                 ValueFeaturizer.view(b, unbounded).header)
      assert(hex(fromSketch) == hex(fromView), pairName)
    }
  }
}
