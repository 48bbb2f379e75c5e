package repro.core

import java.util.concurrent.{Callable, ExecutionException, Executors}
import java.util.concurrent.atomic.AtomicInteger

import scala.jdk.CollectionConverters._

/** Small fixed thread pool for driver-side pure-CPU maps over data that
  * already lives on the driver (sketching a corpus, building views and
  * embeddings, featurizing pairs). Its threads are daemons, so an idle pool
  * never keeps the JVM alive after `main` returns.
  */
object Parallel {
  private val inPool: ThreadLocal[Boolean] = ThreadLocal.withInitial(() => false)

  private val pool = {
    val made = new AtomicInteger
    Executors.newFixedThreadPool(
      math.max(2, Runtime.getRuntime.availableProcessors() - 1),
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
}
