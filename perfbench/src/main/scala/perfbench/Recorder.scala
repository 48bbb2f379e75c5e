package perfbench

import scala.collection.mutable
import scala.util.control.NonFatal

/** What one run measured, as raw numbers: `run.py` turns them into the
  * metrics that BENCHMARK.json names.
  *
  * Operations are the timed calls into the program plus the output checks;
  * a call that throws or a check that does not hold counts as failed.
  */
final class Recorder(trace: Trace) {
  val samples  = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  val values   = mutable.LinkedHashMap.empty[String, Double]
  val counts   = mutable.LinkedHashMap.empty[String, Long]
  var calls    = 0L
  var thrown   = 0L
  var checks   = 0L
  var checksFailed = 0L
  val failures = mutable.ArrayBuffer.empty[String]
  /** Off during the warm-up pass: calls then only run. */
  var recording = true

  def sample(name: String, v: Double): Unit = samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v

  def count(name: String, n: Long): Unit = if (recording) counts(name) = counts.getOrElse(name, 0L) + n

  private def fail(msg: String): Unit = {
    if (failures.size < 50) failures += msg
    Console.err.println(s"[perfbench] FAILED: $msg")
  }

  /** Times one call into layer `name`, records a span around it, and
    * keeps its latency in ms under `name` (and `name.tag` when tagged).
    */
  def call[T](name: String, tag: String = "")(body: => T): Option[T] =
    if (!recording) Some(body)
    else {
      calls += 1
      val start = System.nanoTime()
      try Some(trace.span(name, tag)(body))
      catch { case NonFatal(e) => thrown += 1; fail(s"$name($tag) threw $e"); None }
      finally {
        val ms = (System.nanoTime() - start) / 1e6
        sample(name, ms)
        if (tag.nonEmpty) sample(s"$name.$tag", ms)
      }
    }

  def check(ok: Boolean, what: => String): Boolean = {
    checks += 1
    if (!ok) { checksFailed += 1; fail(what) }
    ok
  }
}

/** Minimal JSON writer for the raw result file (strings, numbers, arrays, maps). */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }

  def apply(v: Any): String = v match {
    case null                        => "null"
    case s: String                   => str(s)
    case b: Boolean                  => b.toString
    case d: Double                   => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int                      => n.toString
    case n: Long                     => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => s"${str(k.toString)}: ${apply(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]             => xs.map(apply).mkString("[", ", ", "]")
    case other                       => str(other.toString)
  }
}
