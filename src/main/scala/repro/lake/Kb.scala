package repro.lake

import scala.util.Random

/** Synthetic knowledge base — the repro's substitute for Wikidata (§5,
  * Fig. 3): classes with property schemas, entities with class-specific
  * name lexicons, and ground-truth mappings. The Wiki* benchmarks and the
  * Wiki Join search lake are generated from instances of this KB, so every
  * label (union/join/containment) is computable exactly from KB ground
  * truth, as in the paper.
  */
object Kb {

  /** A property of a class. Numeric properties draw from a class-specific
    * lognormal-ish distribution; relation properties reference entity
    * labels of another class.
    *
    * @param id         stable property id (stands in for a Wikidata P-id)
    * @param kind       "float" | "int" | "relation"
    * @param scale      magnitude of numeric draws
    * @param targetClass class index for relation properties (-1 otherwise)
    */
  case class Property(id: String, kind: String, scale: Double, targetClass: Int)

  /** A KB class: concept id, entity-name lexicon (syllables), properties. */
  case class KbClass(id: String, conceptId: String, syllables: Seq[String], properties: Seq[Property])

  /** An entity: label + numeric property values (by property id). */
  case class Entity(label: String, classIdx: Int, values: Map[String, String])

  case class Graph(classes: Seq[KbClass], entities: Seq[Seq[Entity]])

  private val SyllablePool = Vector(
    "ka", "ro", "ve", "li", "mo", "sa", "tu", "ne", "pi", "do", "ha", "zu",
    "be", "la", "ko", "mi", "ra", "se", "to", "vi", "ny", "gor", "bach", "berg",
    "stadt", "ville", "grad", "pur", "shire", "ford", "ton", "wick")

  private val Suffixes = Vector(
    "County", "District", "City", "Region", "Station", "Park", "Lake", "Peak",
    "Works", "Mills", "Labs", "Holdings", "Museum", "School", "Bridge", "Island")

  /** Shared numeric property templates: several classes reuse the same
    * property id (e.g. area/population) so the Wiki Union negatives of
    * type (a) — same properties, different concept — exist, as in Fig. 4.
    */
  private val SharedNumeric = Vector(
    ("P2046_area", "float", 100.0), ("P1082_population", "int", 50000.0),
    ("P2044_elevation", "float", 1000.0), ("P2048_height", "float", 50.0),
    ("P2047_duration", "int", 200.0), ("P2142_boxoffice", "float", 1e6),
    ("P1538_households", "int", 20000.0), ("P2196_students", "int", 5000.0))

  /** Generate a KB with ``nClasses`` classes and ``entitiesPerClass``
    * entities each. Deterministic in ``seed``.
    */
  def generate(seed: Long, nClasses: Int = 24, entitiesPerClass: Int = 400): Graph = {
    val rng = new Random(seed)
    val classes = (0 until nClasses).map { c =>
      val syl = rng.shuffle(SyllablePool).take(6 + rng.nextInt(4))
      // 2-4 shared numeric properties + 1-2 class-private ones + possibly a relation.
      val shared = rng.shuffle(SharedNumeric).take(2 + rng.nextInt(3)).map {
        case (id, kind, scale) => Property(id, kind, scale * (0.5 + rng.nextDouble()), -1)
      }
      val priv = (0 until 1 + rng.nextInt(2)).map { i =>
        Property(s"P9${c}0$i", if (rng.nextBoolean()) "int" else "float",
                 math.pow(10, 1 + rng.nextInt(4)) * (0.5 + rng.nextDouble()), -1)
      }
      // Every class points at 1-2 others: foreign-key-style mention columns
      // are the dominant value-overlap confound for join search (§6.3.1).
      val rel =
        if (nClasses > 1)
          (0 until 1 + (if (rng.nextDouble() < 0.4) 1 else 0)).map(i =>
            Property(s"P8${c}$i", "relation", 0.0, (c + 1 + rng.nextInt(nClasses - 1)) % nClasses))
        else Seq.empty
      KbClass(s"C$c", s"Q${7000 + c}", syl, shared ++ priv ++ rel)
    }

    // Entity labels: 2-4 class syllables + optional class-flavoured suffix.
    def label(k: KbClass, r: Random): String = {
      val stem = (0 until 2 + r.nextInt(3)).map(_ => k.syllables(r.nextInt(k.syllables.size))).mkString
      val suf  = if (r.nextDouble() < 0.6) " " + Suffixes(math.abs(k.id.hashCode + r.nextInt(3)) % Suffixes.size) else ""
      stem.capitalize + suf
    }

    // Ambiguity, two kinds (§5.1.2 "prevalence of ambiguous entity labels"):
    //  - ~30% of entities reuse an earlier label of the SAME class, making
    //    label overlap a noisy proxy of entity overlap (bounds Wiki-join R2);
    //  - ~12% draw from a GLOBAL generic lexicon shared by all classes
    //    (think "Springfield" the city vs. the song), so value overlap
    //    exists across concepts where joining is not sensible — the
    //    confound that separates context-aware join search from pure
    //    overlap methods (§6.3.1).
    val genericPool = (0 until 90).map { i =>
      val stem = (0 until 2 + rng.nextInt(2)).map(_ => SyllablePool(rng.nextInt(SyllablePool.size))).mkString
      stem.capitalize + " " + Suffixes(i % Suffixes.size)
    }
    val entities = classes.zipWithIndex.map { case (k, c) =>
      val labels = scala.collection.mutable.ArrayBuffer.empty[String]
      while (labels.size < entitiesPerClass) {
        if (labels.size > 10 && rng.nextDouble() < 0.30) labels += labels(rng.nextInt(labels.size))
        else if (rng.nextDouble() < 0.12) labels += genericPool(rng.nextInt(genericPool.size))
        else labels += label(k, rng)
      }
      labels.toSeq.map { lbl =>
        val vals = k.properties.flatMap { p =>
          p.kind match {
            case "int"   => Some(p.id -> math.max(0, (rng.nextGaussian() * 0.5 + 1.0) * p.scale).round.toString)
            case "float" => Some(p.id -> f"${math.max(0.01, (rng.nextGaussian() * 0.5 + 1.0) * p.scale)}%.2f")
            case _       => None // relation values resolved at table-generation time
          }
        }.toMap
        Entity(lbl, c, vals)
      }
    }
    Graph(classes, entities)
  }
}
