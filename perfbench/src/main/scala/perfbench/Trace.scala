package perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** One call from the benchmark into a layer of the program.
  *
  * @param parent id of the span open when this one started (0 = none)
  * @param pass   timed pass the span belongs to; -1 for set-up and warm-up
  */
final case class Span(id: Long, parent: Long, name: String, tag: String, pass: Int,
                      startNs: Long, endNs: Long)

/** Spark work attributed to one span. */
final class SparkWork {
  var jobs = 0L
  var tasks = 0L
  var taskMs = 0L
  var shuffleWriteBytes = 0L
}

/** In-memory span recorder. Spans open and close on the benchmark's main
  * thread only; while a span is open its id is a Spark local property, so
  * [[SparkCounters]] can attribute the jobs it starts.
  *
  * When `enabled` is false a span only runs its body, as in the warm-up,
  * the untraced passes of a traced run and every pass of an untraced run.
  */
final class Trace(sc: SparkContext) {
  var enabled = false
  var pass = -1
  val spans = mutable.ArrayBuffer.empty[Span]
  private var nextId = 0L
  private var open: List[Long] = Nil

  def span[T](name: String, tag: String = "")(body: => T): T =
    if (!enabled) body
    else {
      nextId += 1
      val id     = nextId
      val parent = open.headOption.getOrElse(0L)
      open = id :: open
      sc.setLocalProperty(Trace.SparkKey, id.toString)
      val start = System.nanoTime()
      try body
      finally {
        val end = System.nanoTime()
        open = open.tail
        sc.setLocalProperty(Trace.SparkKey, open.headOption.map(_.toString).orNull)
        spans += Span(id, parent, name, tag, pass, start, end)
      }
    }
}

object Trace {
  val SparkKey = "perfbench.span"
}

/** Counts Spark jobs, tasks, task time and shuffle bytes per span: a job
  * belongs to the span whose id was the local property when it started,
  * and a task to the job of its stage. Work started outside any span goes
  * to span 0.
  */
final class SparkCounters extends SparkListener {
  private val stageSpan = mutable.HashMap.empty[Int, Long]
  private val bySpan    = mutable.HashMap.empty[Long, SparkWork]

  private def work(span: Long): SparkWork = bySpan.getOrElseUpdate(span, new SparkWork)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Trace.SparkKey))).fold(0L)(_.toLong)
    work(span).jobs += 1
    e.stageIds.foreach(stageSpan(_) = span)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val w = work(stageSpan.getOrElse(e.stageId, 0L))
    w.tasks += 1
    Option(e.taskMetrics).foreach { m =>
      w.taskMs += m.executorRunTime
      w.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  def snapshot(): Map[Long, SparkWork] = synchronized(bySpan.toMap)
}
