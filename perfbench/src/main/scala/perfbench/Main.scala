package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.PerfbenchListenerBus
import org.apache.spark.sql.SparkSession

/** One benchmark run in its own JVM; `perfbench/run.py` starts it.
  *
  * {{{
  * Main --workload finetune|search --seed N --seconds S --trace 0|1
  *      --cores C --work DIR --out FILE
  * }}}
  *
  * The run sets the workload up `SetupReps` times, warms it up with one
  * untimed pass, then makes as many timed passes as fit in about `seconds`. With
  * `--trace 1` every second pass records spans and Spark counters, so the
  * untraced passes of the same run give the tracing overhead. The raw
  * numbers go to `--out` as JSON.
  */
object Main {

  val SetupReps = 3

  def main(args: Array[String]): Unit = {
    val code =
      try { run(args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap); 0 }
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
    // Explicit exit: the pool behind repro.models.Parallel has non-daemon threads.
    sys.exit(code)
  }

  private def seconds(body: => Unit): Double = {
    val start = System.nanoTime()
    body
    (System.nanoTime() - start) / 1e9
  }

  def run(opt: Map[String, String]): Unit = {
    val traced = opt("trace") == "1"
    val work   = opt("work")
    val spark = SparkSession.builder
      .master(s"local[${opt("cores")}]")
      .appName("perfbench")
      // The same settings as the spark-submit jobs (repro.jobs.Jobs).
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.local.dir", s"$work/spark")
      .config("spark.sql.warehouse.dir", s"$work/warehouse")
      .getOrCreate()
    val sc = spark.sparkContext
    sc.setLogLevel("WARN")
    val sessionS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

    val counters = new SparkCounters
    if (traced) sc.addSparkListener(counters)
    val trace = new Trace(sc)
    val rec   = new Recorder(trace)
    val ctx   = Ctx(spark, opt("seed").toLong, opt("seconds").toDouble, rec, trace, work)
    val w: Workload = opt("workload") match {
      case "finetune" => new Finetune(ctx)
      case "search"   => new Search(ctx)
      case other      => throw new IllegalArgumentException(s"unknown workload $other")
    }

    // Set-up spans are kept in a traced run (pass -1).
    trace.enabled = traced
    val setupS = (1 to SetupReps).map(_ => seconds(w.setup()))
    trace.enabled = false
    rec.recording = false
    val warmupS = seconds(w.pass(-1))
    rec.recording = true

    // A fixed number of passes, so every run at a seed does the same work;
    // a traced run needs an untraced and a traced pass.
    val passes = mutable.ArrayBuffer.empty[Map[String, Any]]
    for (i <- 0 until math.max(if (traced) 2 else 1, w.passes)) {
      trace.pass = i
      trace.enabled = traced && i % 2 == 1
      val start = System.nanoTime()
      w.pass(i)
      val end = System.nanoTime()
      trace.enabled = false
      passes += Map("traced" -> (traced && i % 2 == 1), "start_ns" -> start, "end_ns" -> end)
      w.checkPass(i)
    }

    // Spark's cleaner frees some objects only after a collection, so take
    // the least heap in use over a few forced collections.
    val heap = (1 to 3).map { _ =>
      System.gc(); Thread.sleep(100)
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
    }.min

    w.finish()
    PerfbenchListenerBus.drain(sc)
    val sparkWork = counters.snapshot()

    val spans = trace.spans.map { s =>
      val sw = sparkWork.getOrElse(s.id, new SparkWork)
      Map("id" -> s.id, "parent" -> s.parent, "name" -> s.name, "tag" -> s.tag, "pass" -> s.pass,
          "start_ns" -> s.startNs, "end_ns" -> s.endNs, "jobs" -> sw.jobs, "tasks" -> sw.tasks,
          "task_ms" -> sw.taskMs, "shuffle_write_bytes" -> sw.shuffleWriteBytes)
    }
    val env = Map(
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "spark_master" -> sc.master,
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory() / (1024 * 1024),
      "jdk" -> s"${System.getProperty("java.vendor")} ${System.getProperty("java.version")}",
      "spark" -> spark.version,
      "scala" -> scala.util.Properties.versionNumberString,
    )
    val out = Map(
      "env" -> env,
      "workload" -> opt("workload"),
      "seed" -> opt("seed").toLong,
      "traced" -> traced,
      "cores" -> opt("cores").toInt,
      "session_s" -> sessionS,
      "setup_reps_s" -> setupS,
      "warmup_s" -> warmupS,
      "passes" -> passes,
      "heap_retained_mb" -> heap,
      "samples" -> rec.samples,
      "values" -> rec.values,
      "counts" -> rec.counts,
      "ops" -> Map("calls" -> rec.calls, "thrown" -> rec.thrown,
                   "checks" -> rec.checks, "checks_failed" -> rec.checksFailed),
      "failures" -> rec.failures,
      "spans" -> spans,
    )
    java.nio.file.Files.write(java.nio.file.Paths.get(opt("out")),
      Json(out).getBytes(java.nio.charset.StandardCharsets.UTF_8))
    spark.stop()
  }
}
