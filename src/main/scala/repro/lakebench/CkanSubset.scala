package repro.lakebench

import scala.util.Random

import repro.lake.LakeTable

/** CKAN Subset binary classification (§5.3, Fig. 6–7): each base table is
  * partitioned into four equal contiguous subsets S1..S4; subset Si is
  * paired with Si ∪ Sa ∪ Sb (positive) and with the union of the three
  * other subsets (negative), so positive and negative pairs have identical
  * schemas AND identical row counts.
  *
  * Tables are denormalized open-data style: entity names/codes repeat
  * across rows and measures are *quantized* (small ints or .0/.5 floats)
  * with a slow hidden drift along the row order (tables arrive in
  * ingestion order, as real CKAN dumps do). Consequences, matching the
  * paper's Table 3/4 findings:
  *  - distinct-value sets are nearly identical across subsets, so MinHash
  *    (set-based) carries almost no subset signal;
  *  - moments and ranges shift *first-order* with the drift, so numerical
  *    sketches separate positives (whose partner contains Si's rows) from
  *    negatives (whose partner excludes them);
  *  - bag-cosine summaries (the value-baseline analogues) are only
  *    *second-order* sensitive to small distribution shifts, so value
  *    models hover near chance.
  */
object CkanSubset {

  def generate(seed: Long = 81, nBaseTables: Int = 500): Benchmark = {
    val rng = new Random(seed)

    val tables = scala.collection.mutable.LinkedHashMap.empty[String, LakeTable]
    val pairs  = scala.collection.mutable.ArrayBuffer.empty[PairExample]

    for (b <- 0 until nBaseTables) {
      val nEntities = 45 + rng.nextInt(55)
      val nPeriods  = 8 + rng.nextInt(8)
      val names     = (0 until nEntities).map(i => s"Org ${b % 13} Unit $i")
      val codes     = (0 until nEntities).map(i => (1000 + (b % 7) * 100 + i).toString)
      val nMeasures = 6 + rng.nextInt(8)
      val isFloat   = (0 until nMeasures).map(_ => rng.nextBoolean())
      val bases     = (0 until nMeasures).map(_ => 5 + rng.nextInt(40))
      // Drift across the whole table in quantization steps. Values are
      // clipped to a fixed band and a few cells draw uniformly from the
      // whole band, so every block's *value set* is (nearly) the same —
      // MinHash sees nothing — while means/percentiles move first-order
      // with the drift — exactly what numerical sketches capture. The
      // value baselines' JL-projected, resampled bag cosines are only
      // second-order sensitive to the same shift.
      val drifts    = (0 until nMeasures).map(_ => (rng.nextDouble() * 2 - 0.6) * 7.0)

      val header = Seq("code", "name") ++ (0 until nMeasures).map(i => s"measure_$i")
      val nRowsAll = nEntities * nPeriods
      val allRows = (for {
        p <- 0 until nPeriods
        e <- 0 until nEntities
      } yield {
        val frac = (p * nEntities + e).toDouble / nRowsAll
        val ms = (0 until nMeasures).map { m =>
          val lo = bases(m) - 3; val hi = bases(m) + 11
          val raw =
            if (rng.nextDouble() < 0.15) lo + rng.nextInt(hi - lo + 1) // full-band draw
            else bases(m) + (drifts(m) * frac).round.toInt + rng.nextInt(7) - 3
          val v = math.max(0, math.min(hi, math.max(lo, raw)))
          if (isFloat(m)) f"${v + (rng.nextInt(2) * 5) / 10.0}%.1f" else v.toString
        }
        Vector(codes(e), names(e)) ++ ms
      }).toVector
      // Trim to a multiple of 4 so positive/negative partners have
      // *identical* row counts (no row-count signal, as in the paper).
      val rows = allRows.take(allRows.size - allRows.size % 4)

      val n = rows.size
      val subsets = Vector(
        rows.slice(0, n / 4), rows.slice(n / 4, n / 2),
        rows.slice(n / 2, 3 * n / 4), rows.slice(3 * n / 4, n))

      def register(tag: String, rs: Seq[Seq[String]]): String = {
        val id = s"ckan_${b}_$tag.csv"
        tables(id) = LakeTable(id, "", header, rs)
        id
      }

      // Two anchor subsets per base table -> 4 pairs.
      for (i <- rng.shuffle((0 until 4).toList).take(2)) {
        val others  = (0 until 4).filterNot(_ == i)
        val two     = rng.shuffle(others).take(2)
        // Union tables are shuffled: row order is not semantic, and an
        // unshuffled union would leak "B's first rows == A's rows" to any
        // model that reads a prefix window of the table.
        val posRows = rng.shuffle(subsets(i) ++ two.flatMap(subsets))
        val negRows = rng.shuffle(others.flatMap(subsets).toVector)
        val si  = register(s"S$i", subsets(i))
        val pos = register(s"pos$i", posRows)
        val neg = register(s"neg$i", negRows)
        pairs += PairExample(si, pos, Array(1.0))
        pairs += PairExample(si, neg, Array(0.0))
      }
    }

    val (tr, va, te) = Benchmark.split(pairs.toSeq, seed)
    Benchmark("CKAN Subset", BinaryTask, tables.toMap, tr, va, te)
  }
}
