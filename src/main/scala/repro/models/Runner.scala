package repro.models

import org.apache.logging.log4j.LogManager
import org.apache.spark.sql.SparkSession

import repro.core.Parallel
import repro.lakebench.{Benchmark, BinaryTask, MultiLabelTask, PairExample, RegressionTask, TaskType}
import repro.nn.{Metrics, Mlp}

/** Train/eval harness for one (featurizer, benchmark) pair: featurize the
  * three splits, train the MLP head with early stopping on the validation
  * split (see [[repro.nn.Mlp]]), and compute the paper's metric on test —
  * weighted F1 for classification, R² for regression.
  */
object Runner {

  private val log = LogManager.getLogger(getClass)

  case class FeatureSets(
      xTrain: Array[Array[Double]], yTrain: Array[Array[Double]],
      xValid: Array[Array[Double]], yValid: Array[Array[Double]],
      xTest: Array[Array[Double]],  yTest: Array[Array[Double]],
  )

  def featurize(spark: SparkSession, fz: PairFeaturizer, bench: Benchmark): FeatureSets = {
    val f = fz.prepare(spark, bench.tables)
    def split(ps: Seq[PairExample]): (Array[Array[Double]], Array[Array[Double]]) = {
      val feats = Parallel.map(ps)(p => (f(p.t1, p.t2), p.label))
      (feats.map(_._1).toArray, feats.map(_._2).toArray)
    }
    val (xtr, ytr) = split(bench.train)
    val (xva, yva) = split(bench.valid)
    val (xte, yte) = split(bench.test)
    FeatureSets(xtr, ytr, xva, yva, xte, yte)
  }

  /** Train once with the given seed and return the task metric on test.
    * Logs the training diagnostics (epochs run, best validation loss) at
    * DEBUG.
    */
  def trainEval(task: TaskType, fs: FeatureSets, seed: Long): Double = {
    val mlpTask = task match {
      case BinaryTask          => Mlp.Binary
      case RegressionTask      => Mlp.Regression
      case MultiLabelTask(ls)  => Mlp.MultiLabel(ls.size)
    }
    val mlp = Mlp.train(mlpTask, fs.xTrain, fs.yTrain, fs.xValid, fs.yValid, seed)
    if (log.isDebugEnabled)
      log.debug(s"trained $mlpTask: ${mlp.nIn} inputs, ${fs.xTrain.length} train rows, seed $seed: " +
                s"${mlp.epochs} epochs, best validation loss ${mlp.bestLoss}")
    val preds = mlp.predictAll(fs.xTest)
    task match {
      case BinaryTask =>
        Metrics.weightedF1(fs.yTest.map(_(0).round.toInt).toSeq, preds.map(p => if (p(0) > 0.5) 1 else 0).toSeq)
      case RegressionTask =>
        Metrics.r2(fs.yTest.map(_(0)).toSeq, preds.map(_(0)).toSeq)
      case MultiLabelTask(_) =>
        Metrics.multiLabelWeightedF1(
          fs.yTest.map(_.map(_.round.toInt)).toSeq,
          preds.map(_.map(p => if (p > 0.5) 1 else 0)).toSeq)
    }
  }

  /** Metric mean ± stdev across seeds (paper reports five random seeds) of one set of features. */
  def evaluate(task: TaskType, fs: FeatureSets, seeds: Seq[Long]): (Double, Double) = {
    val scores = seeds.map(s => trainEval(task, fs, s))
    (Metrics.mean(scores), Metrics.stdev(scores))
  }

  def metricName(task: TaskType): String = task match {
    case RegressionTask => "R2"
    case _              => "F1"
  }
}
