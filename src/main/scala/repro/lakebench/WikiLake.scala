package repro.lakebench

import scala.util.Random
import scala.util.hashing.MurmurHash3

import repro.lake.{Kb, LakeTable}

/** Wikidata-style tabular data lake generated from the synthetic KB
  * (§5, Fig. 3–4): per class, tables with col0 = (possibly ambiguous)
  * entity labels and further columns for numeric properties / relations,
  * cryptic ``colN`` headers, occasional nulls, plus full ground-truth
  * mappings (table→concept, column→property, row→entity).
  */
object WikiLake {

  /** A generated table plus its KB ground truth.
    *
    * @param entityIdxs the *entity indices* of col0 rows (ground-truth CE
    *                   mappings; labels in cells may be ambiguous)
    * @param schema     ordered property ids of columns 1..n
    */
  case class WikiTable(table: LakeTable, classIdx: Int, schema: Seq[String], entityIdxs: Set[Int]) {
    /** Canonical unionability signature: concept is NOT part of it — two
      * tables are fully unionable iff same class AND same property set.
      */
    def schemaSig: String = schema.sorted.mkString("|")
  }

  case class Lake(kb: Kb.Graph, tables: Seq[WikiTable]) {
    /** lazy val (not def): the three Wiki benchmarks must share one map
      * instance so per-corpus representation caches hit across them.
      */
    lazy val lakeTables: Map[String, LakeTable] = tables.map(t => t.table.id -> t.table).toMap

    /** The tables by id, built once per lake. */
    lazy val byId: Map[String, WikiTable] = tables.map(t => t.table.id -> t).toMap
  }

  /** Deterministic relation target for (entity label, property): relation
    * cells must be stable across tables that mention the same entity.
    * Targets are head-heavy (only the first third of the target class is
    * ever referenced), as in real knowledge graphs where popular entities
    * dominate mentions — which maximizes value overlap between mention
    * columns and subject columns.
    */
  private def relationTarget(label: String, propId: String, n: Int): Int =
    math.floorMod(MurmurHash3.stringHash(label + "#" + propId), math.max(1, n / 3))

  /** Generate the lake.
    *
    * @param schemasPerClass  distinct schemas per class; roughly half use
    *                         only shared numeric properties so the same
    *                         schema signature recurs across classes
    *                         (Wiki Union negatives of type a)
    * @param tablesPerSchema  max tables sharing a schema (paper caps at 20)
    */
  def generate(seed: Long = 21, nClasses: Int = 24, entitiesPerClass: Int = 400,
               schemasPerClass: Int = 8, tablesPerSchema: Int = 9): Lake = {
    val kb  = Kb.generate(seed * 7 + 1, nClasses, entitiesPerClass)
    val rng = new Random(seed)

    val tables = kb.classes.zipWithIndex.flatMap { case (k, c) =>
      // Shared numeric templates carry an underscore suffix ("P2046_area");
      // class-private and relation properties do not.
      val shared  = k.properties.filter(p => p.kind != "relation" && p.id.contains("_"))
      val others  = k.properties
      val schemas: Seq[Seq[String]] = (0 until schemasPerClass).flatMap { s =>
        if (s % 2 == 0 && shared.nonEmpty) {
          // shared-only schema, canonically ordered -> recurs across classes
          val take = 1 + rng.nextInt(math.min(3, shared.size))
          Some(rng.shuffle(shared).take(take).map(_.id).sorted)
        } else {
          val take = 1 + rng.nextInt(math.min(7, others.size))
          Some(rng.shuffle(others).take(take).map(_.id))
        }
      }.distinct

      schemas.flatMap { schema =>
        val nTables = 2 + rng.nextInt(math.max(1, tablesPerSchema - 1))
        (0 until nTables).map { _ =>
          val len   = 20 + rng.nextInt(101)
          val start = rng.nextInt(math.max(1, entitiesPerClass - len))
          val idxs  = (start until math.min(entitiesPerClass, start + len)).toVector
          val ents  = idxs.map(kb.entities(c))
          val nullCol = if (rng.nextDouble() < 0.3 && schema.nonEmpty) 1 + rng.nextInt(schema.size) else -1
          val rows = ents.zipWithIndex.map { case (e, ri) =>
            val cells = e.label +: schema.map { pid =>
              kb.classes(c).properties.find(_.id == pid) match {
                case Some(p) if p.kind == "relation" =>
                  val tgt = kb.entities(p.targetClass)
                  tgt(relationTarget(e.label, pid, tgt.size)).label
                case _ => e.values.getOrElse(pid, null)
              }
            }
            if (nullCol >= 0 && (ri * 31 + start) % 17 == 0) cells.updated(nullCol, null) else cells
          }
          val id = Benchmark.tableId(rng) + ".csv"
          WikiTable(
            LakeTable(id, "", (0 to schema.size).map(i => s"col$i"), rows),
            c, schema, idxs.toSet)
        }
      }
    }
    Lake(kb, tables)
  }

  /** Exact Jaccard of ground-truth entity sets. */
  def entityJaccard(a: WikiTable, b: WikiTable): Double =
    if (a.classIdx != b.classIdx) 0.0
    else {
      val u = a.entityIdxs.union(b.entityIdxs).size
      if (u == 0) 0.0 else a.entityIdxs.intersect(b.entityIdxs).size.toDouble / u
    }

  /** Minimum containment ratio of ground-truth entity sets. */
  def entityContainment(a: WikiTable, b: WikiTable): Double =
    if (a.classIdx != b.classIdx) 0.0
    else {
      val i = a.entityIdxs.intersect(b.entityIdxs).size.toDouble
      if (a.entityIdxs.isEmpty || b.entityIdxs.isEmpty) 0.0
      else math.min(i / a.entityIdxs.size, i / b.entityIdxs.size)
    }
}
