package repro.lakebench

import scala.util.Random

import WikiLake.Lake

/** Wiki Union binary classification (§5.1.2): positives are fully
  * unionable table pairs (same concept, same property set); negatives are
  * (a) same property set but different concept, and (b) same column count
  * but different property sets — exactly the paper's two negative kinds.
  *
  * Headers are cryptic (``colN``), so the benchmark is unsolvable from
  * headers alone — the reason Vanilla BERT sits at majority-class F1.
  */
object WikiUnion {

  def generate(lake: Lake, seed: Long = 31, nPairs: Int = 4200): Benchmark = {
    val rng = new Random(seed)
    val ts  = lake.tables.toVector

    val bySig      = ts.groupBy(_.schemaSig)
    val byClassSig = ts.groupBy(t => (t.classIdx, t.schemaSig))
    val byNCols    = ts.groupBy(_.schema.size)

    def pick[T](v: Vector[T]): T = v(rng.nextInt(v.size))

    val posGroups = byClassSig.values.filter(_.size >= 2).toVector

    require(posGroups.nonEmpty, "wiki lake has no unionable group — corpus too small")
    // Every negative is anchored at the table of the positive generated
    // just before it, so schema size (the only thing cryptic headers can
    // reveal) is identically distributed across labels.
    var toggle = false
    val pairs = Benchmark.drawPairs(nPairs) { ps =>
      val g = pick(posGroups)
      val a = pick(g)
      ps.add(a.table.id, pick(g).table.id)(1.0)
      toggle = !toggle
      val crossPartners = bySig(a.schemaSig).filter(_.classIdx != a.classIdx)
      if (toggle && crossPartners.nonEmpty) {
        // negative (a): same schema set, different class
        ps.add(a.table.id, pick(crossPartners).table.id)(0.0)
      } else {
        // negative (b): same #cols, different schema set
        val bs = byNCols(a.schema.size).filter(_.schemaSig != a.schemaSig)
        if (bs.nonEmpty) ps.add(a.table.id, pick(bs).table.id)(0.0)
      }
    }

    val (tr, va, te) = Benchmark.split(pairs, seed)
    Benchmark("Wiki Union", BinaryTask, lake.lakeTables, tr, va, te)
  }
}
