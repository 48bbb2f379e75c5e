package repro.core

import java.util.concurrent.{ConcurrentHashMap, TimeoutException}
import java.util.concurrent.atomic.AtomicBoolean

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._

import org.scalatest.funsuite.AnyFunSuite

class ParallelSpec extends AnyFunSuite {

  test("map keeps input order and runs on daemon threads") {
    val ran = Parallel.map(1 to 16)(i => (i * 2, Thread.currentThread()))
    assert(ran.map(_._1) == (1 to 16).map(_ * 2))
    assert(ran.forall(_._2.isDaemon), "an idle pool must not keep the JVM alive")
    assert(ran.forall(_._2.getName.startsWith("repro-parallel-")))
  }

  test("an exception thrown in f surfaces with its own type, the first failing element's") {
    val e = intercept[IllegalStateException] {
      Parallel.map(1 to 8)(i => if (i >= 3) throw new IllegalStateException(s"boom $i") else i)
    }
    assert(e.getMessage == "boom 3")
    val nested = intercept[ArithmeticException] {
      Parallel.map(1 to 2)(i => Parallel.map(Seq(0))(j => i / j))
    }
    assert(nested.getMessage == "/ by zero")
  }

  test("a map nested in a map completes, the inner one inline on the pool thread") {
    // More outer tasks than pool threads: if every pool thread blocked on
    // inner tasks queued behind it, the fixed pool would never finish.
    val n = 4 * Runtime.getRuntime.availableProcessors()
    val outerThreads = ConcurrentHashMap.newKeySet[Thread]()
    val abandoned = new AtomicBoolean(false)
    val nested = Future {
      Parallel.map(1 to n) { i =>
        val outer = Thread.currentThread()
        outerThreads.add(outer)
        if (abandoned.get) (0, false)
        else {
          val inner = Parallel.map(1 to n)(j => (i * j, Thread.currentThread()))
          (inner.map(_._1).sum, inner.forall(_._2 eq outer))
        }
      }
    }(ExecutionContext.global)
    val got =
      try Await.result(nested, 60.seconds)
      catch {
        case e: TimeoutException =>
          // Unblock the deadlocked pool threads, and skip the outer tasks
          // still queued, so later suites can use the pool.
          abandoned.set(true)
          outerThreads.forEach(_.interrupt())
          fail("a nested map deadlocked the pool", e)
      }
    assert(got.map(_._1) == (1 to n).map(i => i * n * (n + 1) / 2))
    assert(got.forall(_._2), "a call from a pool thread runs on that thread")
  }
}
