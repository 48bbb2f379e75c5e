package repro.lakebench

import scala.util.Random

import repro.lake.{LakeTable, Text}

/** Spider-OpenData join benchmark (§5.2.3, Fig. 5b): for each base table,
  * pick a join column (mostly-unique, non-float), sort by it, split into
  * four quadrants around the join column; adjacent quadrants (sharing the
  * join column's values) are positive joinable pairs, diagonal quadrants
  * (no shared join values, different attribute columns) are negatives.
  */
object SpiderOpenData {

  private val StringPools = Vector(
    Vector("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"),
    Vector("red", "green", "blue", "amber", "violet", "teal"),
    Vector("open", "closed", "pending", "approved", "rejected"),
    Vector("north", "south", "east", "west"),
  )

  def generate(seed: Long = 71, nBaseTables: Int = 360): Benchmark = {
    val rng = new Random(seed)

    val tables = scala.collection.mutable.LinkedHashMap.empty[String, LakeTable]
    val pairs  = scala.collection.mutable.ArrayBuffer.empty[PairExample]

    for (b <- 0 until nBaseTables) {
      val nRows = 80 + rng.nextInt(260)
      // Join column: unique, non-float — half integer ids, half string codes.
      val joinIsInt  = rng.nextBoolean()
      val joinName   = if (joinIsInt) "record_id" else "reference_code"
      val offset     = rng.nextInt(100000)
      val joinVals: Vector[String] =
        if (joinIsInt) {
          // Strictly increasing ids: cumulative random gaps keep the table
          // sorted by the join column and its values unique.
          var cur = offset.toLong
          (0 until nRows).map { _ => cur += 1 + rng.nextInt(3); cur.toString }.toVector
        } else {
          val p = s"${('A' + rng.nextInt(26)).toChar}${('A' + rng.nextInt(26)).toChar}"
          (0 until nRows).map(i => Text.format("%s-%05d-%04d", p, offset, i)).toVector.sorted
        }

      // Attribute columns: 5-9 mixed-type columns.
      val nAttrs = 5 + rng.nextInt(5)
      val attrs = (0 until nAttrs).map { a =>
        val name = s"attr_${b % 7}_$a"
        val kind = rng.nextInt(4)
        val pool = StringPools(rng.nextInt(StringPools.size))
        val base = rng.nextDouble() * 1000
        val gen: Int => String = kind match {
          case 0 => _ => pool(rng.nextInt(pool.size))
          case 1 => i => (i * 3 + rng.nextInt(50)).toString
          case 2 => _ => Text.format("%.2f", base * (0.5 + rng.nextDouble()))
          case 3 => _ => Text.format("%04d-%02d-%02d", 2000 + rng.nextInt(23), 1 + rng.nextInt(12), 1 + rng.nextInt(28))
        }
        (name, gen)
      }

      // Rows sorted by join column (joinVals are already sorted/increasing).
      val rows = (0 until nRows).map(i => joinVals(i) +: attrs.map(_._2(i)))
      val header = joinName +: attrs.map(_._1)

      // Column split: join col in both halves; attrs split left/right.
      val leftAttrs  = 1 to (1 + nAttrs / 2 - 1)
      val rightAttrs = (1 + nAttrs / 2) to nAttrs
      val topRows    = rows.take(nRows / 2)
      val botRows    = rows.drop(nRows / 2)

      def quadrant(tag: String, rs: Seq[Seq[String]], cols: Seq[Int]): String = {
        val keep = 0 +: cols
        val id = s"spider_${b}_$tag.csv"
        tables(id) = LakeTable(id, "", keep.map(header(_)), rs.map(r => keep.map(r(_))))
        id
      }

      val tl = quadrant("TL", topRows, leftAttrs)
      val tr = quadrant("TR", topRows, rightAttrs)
      val bl = quadrant("BL", botRows, leftAttrs)
      val br = quadrant("BR", botRows, rightAttrs)

      pairs += PairExample(tl, tr, Array(1.0))
      pairs += PairExample(bl, br, Array(1.0))
      pairs += PairExample(tl, br, Array(0.0))
      pairs += PairExample(bl, tr, Array(0.0))
    }

    val (tr2, va, te) = Benchmark.split(pairs.toSeq, seed)
    Benchmark("Spider-OpenData", BinaryTask, tables.toMap, tr2, va, te)
  }
}
