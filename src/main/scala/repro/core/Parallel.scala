package repro.core

import java.util.concurrent.{Callable, ExecutionException, Executors, Future}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}
import java.util.concurrent.locks.LockSupport

import scala.jdk.CollectionConverters._

/** Small fixed thread pool for driver-side pure-CPU maps over data that
  * already lives on the driver (sketching a corpus, building views and
  * embeddings, featurizing pairs), and for the gangs that split one
  * computation's phases over it (training an `Mlp`). Its threads are
  * daemons, so an idle pool never keeps the JVM alive after `main` returns.
  */
object Parallel {
  private val inPool: ThreadLocal[Boolean] = ThreadLocal.withInitial(() => false)

  private val cores = Runtime.getRuntime.availableProcessors()
  private[repro] val poolThreads: Int = math.max(2, cores - 1)
  // Pool threads a gang asks to help: with its caller, a gang never runs
  // more threads than there are cores.
  private val gangHelpers: Int = cores - 1

  private val pool = {
    val made = new AtomicInteger
    Executors.newFixedThreadPool(
      poolThreads,
      (r: Runnable) => {
        val t = new Thread(() => { inPool.set(true); r.run() }, s"repro-parallel-${made.incrementAndGet()}")
        t.setDaemon(true)
        t
      })
  }

  /** `xs.map(f)` on the pool, in input order. A call made from one of the
    * pool's own threads runs inline: waiting there on tasks queued behind
    * it could deadlock the fixed pool. If `f` throws, the first failing
    * element's exception is rethrown as itself.
    */
  def map[T, U](xs: Seq[T])(f: T => U): Seq[U] =
    if (inPool.get) xs.map(f)
    else {
      val tasks = xs.map(x => new Callable[U] { def call(): U = f(x) })
      pool.invokeAll(tasks.asJava).asScala.map { fu =>
        try fu.get()
        catch { case e: ExecutionException if e.getCause != null => throw e.getCause }
      }.toSeq
    }

  /** Threads that run a sequence of phases, one at a time, for one caller. */
  sealed trait Gang {
    /** Runs `f(i)` once for every `i` in `0 until n` and returns when all
      * have run. The indices are split into chunks that any member of the
      * gang may run, in any order and on any thread, so `f` must write
      * nothing that another index reads. `f` must not wait on the pool:
      * the helpers hold its threads until the gang closes. If `f` throws,
      * the exception is rethrown as itself once every chunk has finished.
      */
    def foreach(n: Int)(f: Int => Unit): Unit
  }

  /** Runs `body` with a gang: the calling thread plus whichever idle pool
    * threads join it. Helpers are asked for at the first `foreach`, so a
    * body that never calls it costs no pool thread; they leave when `body`
    * returns, and no helper runs after that. The caller claims chunks like
    * any helper and so finishes every chunk that no helper took: it never
    * waits for a busy pool, only for chunks already running. Called on a
    * pool thread, the gang is that thread alone.
    */
  def gang[T](body: Gang => T): T =
    if (inPool.get) body(Alone)
    else {
      val g = new Team
      try body(g) finally g.close()
    }

  private object Alone extends Gang {
    def foreach(n: Int)(f: Int => Unit): Unit = {
      var i = 0
      while (i < n) { f(i); i += 1 }
    }
  }

  /** One `foreach`: its chunks and counters. A thread claims chunks by
    * incrementing this phase's own counter, so it can run no chunk of a
    * finished phase or of the next one.
    */
  private final class Phase(n: Int, f: Int => Unit) {
    // About two chunks per member: a member that starts late or stalls
    // then delays the phase by half its share at most. Training measured
    // slower with four or eight, whose extra claims cost more than they
    // balanced.
    private val size = math.max(1, n / (2 * (gangHelpers + 1)))
    val chunks: Int = (n + size - 1) / size
    private val next = new AtomicInteger
    val done = new AtomicInteger
    val failure = new AtomicReference[Throwable]

    /** Runs unclaimed chunks until none is left. */
    def work(): Unit = {
      var c = next.getAndIncrement()
      while (c < chunks) {
        try {
          var i = c * size
          val end = math.min(n, i + size)
          while (i < end) { f(i); i += 1 }
        } catch { case t: Throwable => failure.compareAndSet(null, t) }
        done.incrementAndGet()
        c = next.getAndIncrement()
      }
    }
  }

  private final class Team extends Gang {
    @volatile private var current: Phase = null
    // Helpers inside `help`; Int.MinValue is added once the gang closes,
    // after which no helper enters.
    private val members = new AtomicInteger
    private val parked = new AtomicInteger
    private val helperThreads = new AtomicReference[List[Thread]](Nil)
    private var helpers: Seq[Future[_]] = null

    def foreach(n: Int)(f: Int => Unit): Unit = {
      if (helpers == null) helpers = Seq.fill(gangHelpers)(pool.submit(new Runnable { def run(): Unit = help() }))
      val p = new Phase(n, f)
      current = p
      if (parked.get > 0) helperThreads.get.foreach(LockSupport.unpark)
      p.work()
      var spins = 0
      while (p.done.get < p.chunks) {
        spins += 1
        if (spins < 1000) Thread.onSpinWait() else Thread.`yield`()
      }
      val t = p.failure.get
      if (t != null) throw t
    }

    /** A helper's loop: run each new phase's unclaimed chunks; when none
      * is new, spin for a while, then park until the caller publishes one.
      */
    private def help(): Unit = if (enter()) try {
      val me = Thread.currentThread()
      helperThreads.getAndUpdate(me :: _)
      var seen: Phase = null
      var idleSince = 0L
      while (members.get >= 0) {
        val p = current
        if (p ne seen) { seen = p; p.work(); idleSince = 0L }
        else if (idleSince == 0L) idleSince = System.nanoTime()
        else if (System.nanoTime() - idleSince < SpinNanos) Thread.onSpinWait()
        else {
          parked.incrementAndGet()
          if ((current eq seen) && members.get >= 0) LockSupport.parkNanos(this, ParkNanos)
          parked.decrementAndGet()
        }
      }
    } finally members.decrementAndGet()

    private def enter(): Boolean = {
      var m = members.get
      while (m >= 0 && !members.compareAndSet(m, m + 1)) m = members.get
      m >= 0
    }

    /** Stops the helpers and returns once none is left inside `help`. */
    def close(): Unit = if (helpers != null) {
      helpers.foreach(_.cancel(false))
      members.addAndGet(Int.MinValue)
      helperThreads.get.foreach(LockSupport.unpark)
      while (members.get != Int.MinValue) {
        helperThreads.get.foreach(LockSupport.unpark)
        Thread.`yield`()
      }
    }
  }

  // A helper with no new phase spins this long before it parks, which
  // covers the short sequential steps between phases; a parked helper
  // wakes when the caller publishes a phase or the gang closes, or after
  // ParkNanos at the latest.
  private val SpinNanos: Long = 200000L
  private val ParkNanos: Long = 10000000L
}
