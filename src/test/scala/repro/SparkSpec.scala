package repro

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}

import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for every Spark test: one SparkSession for the whole run, with
  * the settings of the spark-submit jobs (`repro.jobs.Jobs.run`).
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Runs `body` on a new directory under `java.io.tmpdir` whose name
    * starts with `prefix`, and deletes the directory afterwards.
    */
  def withTempDir[A](prefix: String)(body: String => A): A = {
    val dir = java.nio.file.Files.createTempDirectory(prefix).toFile
    try body(dir.toString)
    finally org.apache.commons.io.FileUtils.deleteDirectory(dir)
  }

  /** The number of Spark jobs that `body` starts. */
  def sparkJobsDuring(body: => Any): Int =
    sparkEventsDuring(body).count(_.isInstanceOf[SparkListenerJobStart])

  /** The job starts and the events without a callback of their own (SQL
    * executions among them) that `body` posts. A one-task marker job
    * before and after `body` brackets them in the listener bus's order,
    * so events of earlier code still queued on the bus are not counted.
    */
  def sparkEventsDuring(body: => Any): Seq[SparkListenerEvent] = {
    val sc = spark.sparkContext
    val key = "repro.sparkEventsDuring"
    val seen = new LinkedBlockingQueue[Either[String, SparkListenerEvent]]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        seen.put(Option(e.properties).flatMap(p => Option(p.getProperty(key))).toLeft(e))
      override def onOtherEvent(e: SparkListenerEvent): Unit = seen.put(Right(e))
    }
    def marker(name: String): Unit = {
      sc.setLocalProperty(key, name)
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty(key, null)
    }
    sc.addSparkListener(listener)
    try {
      marker("begin")
      body
      marker("end")
      Iterator.continually(seen.poll(60, TimeUnit.SECONDS))
        .map { e => assert(e != null, "no marker job reached the listener bus within 60 s"); e }
        .dropWhile(_ != Left("begin")).drop(1).takeWhile(_ != Left("end"))
        .collect { case Right(e) => e }.toSeq
    } finally sc.removeSparkListener(listener)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output with the driver heap, master and parallelism:
    // build.sbt passes SPARK_DRIVER_MEM to the test JVM as -Xmx, and
    // ROADMAP's tier-1 command derives it from the machine's memory.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
