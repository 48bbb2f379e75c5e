package repro.core

import java.util.concurrent.{ConcurrentHashMap, CyclicBarrier, TimeUnit, TimeoutException}
import java.util.concurrent.atomic.{AtomicBoolean, AtomicIntegerArray}

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._
import scala.jdk.CollectionConverters._

import org.scalatest.funsuite.AnyFunSuite

object ParallelSpec {
  /** Fails unless every pool thread takes a task at the same time, as it
    * can only when no gang's helper holds one.
    */
  def assertPoolFree(): Unit = {
    val all = new CyclicBarrier(Parallel.poolThreads)
    val free = Future(Parallel.map(1 to Parallel.poolThreads)(_ => all.await(30, TimeUnit.SECONDS)))(ExecutionContext.global)
    Await.result(free, 60.seconds)
  }
}

class ParallelSpec extends AnyFunSuite {
  import ParallelSpec.assertPoolFree

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

  test("a gang runs every index of every phase exactly once, over thousands of tiny phases") {
    val threads = ConcurrentHashMap.newKeySet[String]()
    val phases = Parallel.gang { g =>
      (0 until 5000).map { p =>
        val runs = new AtomicIntegerArray(1 + p % 37)
        g.foreach(runs.length) { i => runs.incrementAndGet(i); threads.add(Thread.currentThread().getName) }
        assert((0 until runs.length).forall(runs.get(_) == 1), s"phase $p")
        runs
      }
    }
    // A helper that ran a chunk of a phase after it ended would show here.
    assert(phases.forall(runs => (0 until runs.length).forall(runs.get(_) == 1)))
    val me = Thread.currentThread().getName
    assert(threads.asScala.forall(t => t == me || t.startsWith("repro-parallel-")))
  }

  test("an exception thrown in a gang's phase surfaces with its own type, and the pool stays usable") {
    val e = intercept[IllegalStateException] {
      Parallel.gang { g =>
        val first = intercept[ArithmeticException](g.foreach(100)(i => if (i == 57) throw new ArithmeticException(s"bad $i")))
        assert(first.getMessage == "bad 57")
        val runs = new AtomicIntegerArray(100)
        g.foreach(100)(runs.incrementAndGet(_))
        assert((0 until 100).forall(runs.get(_) == 1), "a phase after a failed one runs every index")
        g.foreach(100)(i => if (i == 3) throw new IllegalStateException(s"boom $i"))
      }
    }
    assert(e.getMessage == "boom 3")
    val later = Future(Parallel.map(1 to 16)(_ * 2))(ExecutionContext.global)
    assert(Await.result(later, 60.seconds) == (1 to 16).map(_ * 2))
  }

  test("a gang opened on a pool thread runs inline on that thread") {
    val ran = Parallel.map(1 to 4) { _ =>
      val outer = Thread.currentThread()
      val seen = ConcurrentHashMap.newKeySet[Thread]()
      Parallel.gang(_.foreach(1000)(_ => seen.add(Thread.currentThread())))
      seen.asScala.toSet == Set(outer)
    }
    assert(ran.forall(identity))
  }

  test("once a gang's body returns, no helper occupies a pool thread") {
    Parallel.gang { g => (0 until 200).foreach(_ => g.foreach(64)(_ => Thread.onSpinWait())) }
    assertPoolFree()
    intercept[IllegalStateException](Parallel.gang(_.foreach(64)(_ => throw new IllegalStateException)))
    assertPoolFree()
  }
}
