package repro.lakebench

import org.scalatest.funsuite.AnyFunSuite

class BenchmarkSpec extends AnyFunSuite {

  private def pairs(n: Int) = (0 until n).map(i => PairExample(s"a$i", s"b$i", Array(i % 2.0)))

  test("split honors the 80/10/10 fractions") {
    val (tr, va, te) = Benchmark.split(pairs(100), seed = 1)
    assert(tr.size == 80 && va.size == 10 && te.size == 10)
  }

  test("split partitions without loss or duplication") {
    val ps = pairs(57)
    val (tr, va, te) = Benchmark.split(ps, seed = 2)
    val all = (tr ++ va ++ te).map(p => (p.t1, p.t2))
    assert(all.size == 57 && all.distinct.size == 57)
    assert(all.toSet == ps.map(p => (p.t1, p.t2)).toSet)
  }

  test("split is deterministic in the seed and varies across seeds") {
    val ps = pairs(40)
    val a = Benchmark.split(ps, seed = 3)._1.map(_.t1)
    val b = Benchmark.split(ps, seed = 3)._1.map(_.t1)
    val c = Benchmark.split(ps, seed = 4)._1.map(_.t1)
    assert(a == b)
    assert(a != c)
  }

  test("split of an empty list yields empty splits") {
    val (tr, va, te) = Benchmark.split(Seq.empty, seed = 5)
    assert(tr.isEmpty && va.isEmpty && te.isEmpty)
  }

  test("tableId produces ids of the requested length and charset") {
    val rng = new scala.util.Random(7)
    val id = Benchmark.tableId(rng)
    assert(id.length == 12)
    assert(id.forall(c => c.isUpper || c.isDigit))
    assert(Benchmark.tableId(rng, 8).length == 8)
  }

  test("allPairs concatenates the three splits") {
    val ps = pairs(30)
    val (tr, va, te) = Benchmark.split(ps, seed = 8)
    val b = Benchmark("X", BinaryTask, Map.empty, tr, va, te)
    assert(b.allPairs.size == 30)
  }

  test("task types carry their metric arity") {
    assert(MultiLabelTask(Seq("a", "b", "c")).labelNames.size == 3)
  }
}
