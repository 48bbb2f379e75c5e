package repro.models

import org.scalatest.funsuite.AnyFunSuite

class ParallelSpec extends AnyFunSuite {

  test("map keeps input order and runs on daemon threads") {
    val ran = Parallel.map(1 to 16)(i => (i * 2, Thread.currentThread()))
    assert(ran.map(_._1) == (1 to 16).map(_ * 2))
    assert(ran.forall(_._2.isDaemon), "an idle pool must not keep the JVM alive")
    assert(ran.forall(_._2.getName.startsWith("repro-parallel-")))
  }
}
