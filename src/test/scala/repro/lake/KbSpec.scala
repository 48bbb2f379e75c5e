package repro.lake

import org.scalatest.funsuite.AnyFunSuite

class KbSpec extends AnyFunSuite {

  private val kb = Kb.generate(seed = 1, nClasses = 10, entitiesPerClass = 200)

  test("generates the requested shape") {
    assert(kb.classes.size == 10)
    assert(kb.entities.size == 10)
    assert(kb.entities.forall(_.size == 200))
  }

  test("generation is deterministic in the seed") {
    val again = Kb.generate(seed = 1, nClasses = 10, entitiesPerClass = 200)
    assert(again.classes == kb.classes)
    assert(again.entities.head.map(_.label) == kb.entities.head.map(_.label))
    val other = Kb.generate(seed = 2, nClasses = 10, entitiesPerClass = 200)
    assert(other.entities.head.map(_.label) != kb.entities.head.map(_.label))
  }

  test("every class has at least one property and distinct concept ids") {
    assert(kb.classes.forall(_.properties.nonEmpty))
    assert(kb.classes.map(_.conceptId).distinct.size == 10)
  }

  test("shared numeric properties recur across classes") {
    val sharedIds = kb.classes.flatMap(_.properties.map(_.id)).filter(_.contains("_"))
    val counts = sharedIds.groupBy(identity).map(_._2.size)
    assert(counts.exists(_ >= 2), "at least one shared property appears in >=2 classes")
  }

  test("entity labels are ambiguous at roughly the configured rate") {
    val labels = kb.entities.head.map(_.label)
    val dupFrac = 1.0 - labels.distinct.size.toDouble / labels.size
    assert(dupFrac > 0.10 && dupFrac < 0.50, s"ambiguity $dupFrac")
  }

  test("numeric property values parse as numbers") {
    val e = kb.entities.head.head
    val cls = kb.classes.head
    cls.properties.filter(_.kind != "relation").foreach { p =>
      val v = e.values(p.id)
      assert(repro.core.TypeInference.parseDouble(v).isDefined, s"${p.id}=$v")
    }
  }

  test("relation properties point to a valid class") {
    kb.classes.flatMap(_.properties).filter(_.kind == "relation").foreach { p =>
      assert(p.targetClass >= 0 && p.targetClass < kb.classes.size)
    }
  }

  test("different classes use different name lexicons (mostly)") {
    val l0 = kb.entities(0).map(_.label).toSet
    val l1 = kb.entities(1).map(_.label).toSet
    val overlap = l0.intersect(l1).size.toDouble / math.min(l0.size, l1.size)
    assert(overlap < 0.2, s"cross-class label overlap $overlap")
  }
}
