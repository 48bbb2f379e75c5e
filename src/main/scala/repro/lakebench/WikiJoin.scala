package repro.lakebench

import scala.util.Random

import WikiLake.{Lake, WikiTable}

/** Wiki Jaccard and Wiki Containment regression benchmarks (§5.2.1–2):
  * table pairs scored by the exact Jaccard similarity (resp. minimum
  * containment ratio) of the ground-truth cell-entity mappings of their
  * entity columns. Cells hold (ambiguous) labels; the ground truth holds
  * entity indices — so value overlap is a noisy proxy of the target, as
  * in the paper's Wikidata lake.
  */
object WikiJoin {

  private def build(name: String, lake: Lake, seed: Long, nPairs: Int,
                    score: (WikiTable, WikiTable) => Double): Benchmark = {
    val rng     = new Random(seed)
    val byClass = lake.tables.groupBy(_.classIdx).view.mapValues(_.toVector).toMap
    val classes = byClass.keys.toVector.sorted
    val ts      = lake.tables.toVector

    val pairs = Benchmark.drawPairs(nPairs) { ps =>
      def add(a: WikiTable, b: WikiTable): Unit = ps.add(a.table.id, b.table.id)(score(a, b))
      if (ps.size % 5 == 4) {
        // Cross-class pair: score 0 (disjoint entity spaces).
        val a = ts(rng.nextInt(ts.size))
        val bs = byClass(classes((classes.indexOf(a.classIdx) + 1 + rng.nextInt(classes.size - 1)) % classes.size))
        add(a, bs(rng.nextInt(bs.size)))
      } else {
        val c = classes(rng.nextInt(classes.size))
        val g = byClass(c)
        if (g.size >= 2) add(g(rng.nextInt(g.size)), g(rng.nextInt(g.size)))
      }
    }
    val (tr, va, te) = Benchmark.split(pairs, seed)
    Benchmark(name, RegressionTask, lake.lakeTables, tr, va, te)
  }

  def generateJaccard(lake: Lake, seed: Long = 41, nPairs: Int = 1700): Benchmark =
    build("Wiki Jaccard", lake, seed, nPairs, WikiLake.entityJaccard)

  def generateContainment(lake: Lake, seed: Long = 43, nPairs: Int = 2100): Benchmark =
    build("Wiki Containment", lake, seed, nPairs, WikiLake.entityContainment)
}
