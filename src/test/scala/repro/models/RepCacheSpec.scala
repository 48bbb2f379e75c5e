package repro.models

import scala.collection.mutable

import repro.SparkSpec
import repro.core.TableSketcher
import repro.lake.LakeTable

class RepCacheSpec extends SparkSpec {

  private def corpus(i: Int): Map[String, LakeTable] = {
    val t = LakeTable(s"t$i.csv", "", Seq("id", "name"), Seq(Seq(i.toString, s"name $i"), Seq("0", "shared")))
    Map(t.id -> t)
  }

  test("two live corpora with the same identity hash keep their own representations") {
    // Birthday bound: a 31-bit identity hash collides after ~60k live
    // objects; 500k without a collision has probability about e^-58.
    val byHash = mutable.HashMap.empty[Int, Map[String, LakeTable]]
    var i = 0
    var found: Option[(Map[String, LakeTable], Map[String, LakeTable])] = None
    while (found.isEmpty && i < 500000) {
      val c = corpus(i)
      found = byHash.put(System.identityHashCode(c), c).map(prev => (prev, c))
      i += 1
    }
    val (first, second) = found.getOrElse(fail(s"no identity-hash collision among $i corpora"))
    byHash.clear()

    val f1 = SketchFeaturizer.prepare(spark, first)
    val f2 = SketchFeaturizer.prepare(spark, second)
    for ((c, f) <- Seq(first -> f1, second -> f2)) {
      val (id, t) = c.head
      val expected = TabSketchFm.features(TableSketcher.sketch(t), TableSketcher.sketch(t))
      assert(f(id, id).sameElements(expected), id)
    }
  }

  test("one corpus is represented once per kind") {
    val c = corpus(-1)
    var computed = 0
    def get() = RepCache.getOrCompute(c, "probe") { computed += 1; new Object }
    assert(get() eq get())
    assert(computed == 1)
  }
}
