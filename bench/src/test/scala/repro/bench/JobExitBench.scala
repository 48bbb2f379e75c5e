package repro.bench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import java.util.concurrent.TimeUnit

import scala.jdk.CollectionConverters._

import org.scalatest.funsuite.AnyFunSuite

/** A `jobs/` main must exit once its table is printed. Runs
  * `repro.jobs.Table1Job` in a JVM of its own, with this JVM's classpath and
  * options (the Spark `--add-opens` flags and system properties) but a 3 GB
  * heap, and fails if it is still running after the timeout. Table 1
  * generates all eight benchmarks and aggregates their table metadata in
  * one Spark query: about 20 s on a 4-core machine, most of it generation
  * and Spark start-up.
  */
class JobExitBench extends AnyFunSuite {

  private val TimeoutS = 300

  test("Table1Job prints Table 1 and exits with code 0") {
    val java = Paths.get(System.getProperty("java.home"), "bin", "java").toString
    val options = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq
      .filterNot(o => o.startsWith("-Xmx") || o.startsWith("-Xms"))
    val cmd = Seq(java, "-Xmx3g") ++ options ++
      Seq("-cp", System.getProperty("java.class.path"), "repro.jobs.Table1Job")
    val log = Files.createTempFile("table1job", ".log")
    try {
      val proc = new ProcessBuilder(cmd.asJava).redirectErrorStream(true).redirectOutput(log.toFile).start()
      val exited = proc.waitFor(TimeoutS, TimeUnit.SECONDS)
      if (!exited) proc.destroyForcibly().waitFor()
      val lines = Files.readAllLines(log).asScala.toSeq
      def tail = lines.takeRight(30).mkString("\n")
      assert(exited, s"Table1Job still running after $TimeoutS s:\n$tail")
      assert(proc.exitValue == 0, s"Table1Job exited with ${proc.exitValue}:\n$tail")
      assert(lines.exists(l => l.startsWith("Benchmark") && l.contains("#Tables")),
        s"Table1Job printed no Table 1 header:\n$tail")
    } finally Files.deleteIfExists(log)
  }
}
