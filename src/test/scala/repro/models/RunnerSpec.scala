package repro.models

import java.util.concurrent.ConcurrentLinkedQueue

import scala.jdk.CollectionConverters._

import org.apache.logging.log4j.{Level, LogManager}
import org.apache.logging.log4j.core.{LogEvent, Logger => CoreLogger}
import org.apache.logging.log4j.core.appender.AbstractAppender
import org.apache.logging.log4j.core.config.Property

import repro.SparkSpec
import repro.lakebench.{CkanSubset, EcbJoin, EcbUnion, TusSantos}

/** End-to-end smoke: featurize + train + evaluate every Table 2 model on a
  * small TUS-SANTOS instance. Domain-distinct headers make the task easy,
  * so every *trainable* model should be strong here while the frozen
  * encoders lag — the qualitative Table 2 pattern. Also pins the exact
  * seed-0 score of every Table 3–4 mask on one small benchmark per task type.
  */
class RunnerSpec extends SparkSpec {

  private lazy val bench = TusSantos.generate(seed = 9, perSeed = 10, nPairs = 700)

  private def run(fz: PairFeaturizer, seeds: Seq[Long]): (Double, Double) =
    Runner.evaluate(bench.task, Runner.featurize(spark, fz, bench), seeds)

  test("TabSketchFM solves small TUS-SANTOS") {
    val (f1, _) = run(Baselines.tabSketchFm, Seq(0L))
    assert(f1 > 0.9, s"f1 $f1")
  }

  test("header-only Vanilla BERT solves small TUS-SANTOS") {
    val (f1, _) = run(Baselines.vanillaBert, Seq(0L))
    assert(f1 > 0.9, s"f1 $f1")
  }

  test("frozen TAPAS underperforms trainable models on TUS-SANTOS") {
    val (frozen, _)    = run(Baselines.tapas, Seq(0L))
    val (trainable, _) = run(Baselines.tabert, Seq(0L))
    assert(trainable > frozen, s"trainable $trainable vs frozen $frozen")
    assert(trainable > 0.9, s"TaBERT analogue $trainable")
  }

  test("run aggregates over seeds with a finite stdev") {
    val (mean, std) = run(Baselines.vanillaBert, Seq(0L, 1L))
    assert(mean > 0.5 && std >= 0.0 && std < 0.5)
  }

  test("featurize produces consistent shapes across splits") {
    val fs = Runner.featurize(spark, Baselines.tabSketchFm, bench)
    assert(fs.xTrain.length == bench.train.size)
    assert(fs.xValid.length == bench.valid.size)
    assert(fs.xTest.length == bench.test.size)
    val dim = fs.xTrain.head.length
    assert(fs.xTest.forall(_.length == dim))
    assert(fs.yTrain.forall(_.length == 1))
  }

  /** One small benchmark per task type of Tables 3–4: binary, regression, multi-label. */
  private lazy val ablationBenches = Seq(
    CkanSubset.generate(nBaseTables = 12),
    EcbUnion.generate(nDatasets = 4, nPairs = 250),
    EcbJoin.generate(nDatasets = 12))

  private val ablationMasks: Seq[(String, SketchMask)] = Seq(
    "MinHash only"      -> SketchMask(numerical = false, content = false),
    "Numerical only"    -> SketchMask(minhash = false, content = false),
    "Content only"      -> SketchMask(minhash = false, numerical = false),
    "No MinHash"        -> SketchMask(minhash = false),
    "No Numerical"      -> SketchMask(numerical = false),
    "No Content"        -> SketchMask(content = false),
    "TabSketchFM (all)" -> SketchMask(),
  )

  // (benchmark, mask) -> raw bits of the seed-0 score, taken while each
  // mask was its own featurizer that left the disabled groups uncomputed.
  private val expectedAblation: Map[(String, String), Long] = Map(
    ("CKAN Subset", "MinHash only") -> 0x3fdd41d41d41d41eL,
    ("CKAN Subset", "Numerical only") -> 0x3fdd41d41d41d41eL,
    ("CKAN Subset", "Content only") -> 0x3fead1ad1ad1ad1aL,
    ("CKAN Subset", "No MinHash") -> 0x3fdd41d41d41d41eL,
    ("CKAN Subset", "No Numerical") -> 0x3fead1ad1ad1ad1aL,
    ("CKAN Subset", "No Content") -> 0x3fdd41d41d41d41eL,
    ("CKAN Subset", "TabSketchFM (all)") -> 0x3fe5555555555555L,
    ("ECB Union", "MinHash only") -> 0x3fed20ed6e17a2ccL,
    ("ECB Union", "Numerical only") -> 0xbfb264f10671bc30L,
    ("ECB Union", "Content only") -> 0xbfc136c4172dac78L,
    ("ECB Union", "No MinHash") -> 0xbfb264f10671bc30L,
    ("ECB Union", "No Numerical") -> 0x3fed20ed6e17a2ccL,
    ("ECB Union", "No Content") -> 0x3fe9e967fbeb7de4L,
    ("ECB Union", "TabSketchFM (all)") -> 0x3fe9e967fbeb7de4L,
    ("ECB Join", "MinHash only") -> 0x3fdc924924924924L,
    ("ECB Join", "Numerical only") -> 0x3fd4924924924924L,
    ("ECB Join", "Content only") -> 0x3fd09f959c427e56L,
    ("ECB Join", "No MinHash") -> 0x3fd4924924924924L,
    ("ECB Join", "No Numerical") -> 0x3fdc924924924924L,
    ("ECB Join", "No Content") -> 0x3fdc924924924924L,
    ("ECB Join", "TabSketchFM (all)") -> 0x3fdc924924924924L,
  )

  test("every ablation mask keeps its seed-0 score bits on one featurization per benchmark") {
    for (b <- ablationBenches) {
      val fs = Runner.featurize(spark, SketchFeaturizer, b)
      for ((name, mask) <- ablationMasks) {
        val (score, std) = Runner.evaluate(b.task, mask(fs), Seq(0L))
        val bits = java.lang.Double.doubleToRawLongBits(score)
        val want = expectedAblation.get((b.name, name))
        assert(want.contains(bits) && std == 0.0, s"${b.name} / $name: $score " +
          s"(${java.lang.Long.toHexString(bits)}, want ${want.map(java.lang.Long.toHexString)}) ± $std")
      }
    }
  }

  test("metricName reflects the task") {
    import repro.lakebench._
    assert(Runner.metricName(BinaryTask) == "F1")
    assert(Runner.metricName(RegressionTask) == "R2")
    assert(Runner.metricName(MultiLabelTask(Seq("a"))) == "F1")
  }

  test("trainEval logs each fit's diagnostics at DEBUG and returns the same score") {
    val fs = Runner.featurize(spark, Baselines.vanillaBert, bench)
    val quiet = Runner.trainEval(bench.task, fs, 0L)
    val logger = LogManager.getLogger(Runner.getClass).asInstanceOf[CoreLogger]
    val lines = new ConcurrentLinkedQueue[String]()
    val capture = new AbstractAppender("capture", null, null, true, Property.EMPTY_ARRAY) {
      override def append(e: LogEvent): Unit = lines.add(e.getMessage.getFormattedMessage)
    }
    capture.start()
    val level = logger.getLevel
    logger.addAppender(capture)
    logger.setLevel(Level.DEBUG)
    val logged =
      try Runner.trainEval(bench.task, fs, 0L)
      finally { logger.removeAppender(capture); logger.setLevel(level) }
    assert(java.lang.Double.compare(logged, quiet) == 0)
    val width = fs.xTrain.head.length
    val Line = s"trained Binary: $width inputs, ${fs.xTrain.length} train rows, seed 0: (\\d+) epochs, best validation loss (\\S+)".r
    val got = lines.asScala.collect { case Line(epochs, loss) => (epochs.toInt, loss.toDouble) }.toSeq
    assert(got.size == 1, lines.asScala.mkString("\n"))
    val (epochs, loss) = got.head
    assert(epochs > 20 && epochs <= 300 && !loss.isNaN && !loss.isInfinite, got)
  }
}
