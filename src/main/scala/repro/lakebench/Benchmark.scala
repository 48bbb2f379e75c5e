package repro.lakebench

import scala.util.Random

import repro.lake.LakeTable

/** LakeBench problem types (§5): binary classification, regression, and
  * multi-label classification (ECB Join).
  */
sealed trait TaskType
case object BinaryTask                              extends TaskType
case object RegressionTask                          extends TaskType
case class MultiLabelTask(labelNames: Seq[String])  extends TaskType

/** One labeled table pair. ``label`` has length 1 except for multi-label
  * tasks where it is one indicator per label name.
  */
case class PairExample(t1: String, t2: String, label: Array[Double])

/** A finetuning benchmark: the table corpus plus train/valid/test pairs. */
case class Benchmark(
    name: String,
    task: TaskType,
    tables: Map[String, LakeTable],
    train: Seq[PairExample],
    valid: Seq[PairExample],
    test: Seq[PairExample],
) {
  def allPairs: Seq[PairExample] = train ++ valid ++ test
}

object Benchmark {

  /** Deterministic shuffle + 80/10/10 train/valid/test split, mirroring
    * LakeBench's layout.
    */
  def split(pairs: Seq[PairExample], seed: Long): (Seq[PairExample], Seq[PairExample], Seq[PairExample]) = {
    val rng      = new Random(seed)
    val shuffled = rng.shuffle(pairs.toVector)
    val nTrain   = (shuffled.size * 0.8).toInt
    val nValid   = (shuffled.size * 0.1).toInt
    (shuffled.take(nTrain),
     shuffled.slice(nTrain, nTrain + nValid),
     shuffled.drop(nTrain + nValid))
  }

  /** The pairs `draw` keeps, in order, until there are `n` or it has run `n * 50` times. */
  def drawPairs(n: Int)(draw: PairSet => Unit): Seq[PairExample] = {
    val ps = new PairSet
    var guard = 0
    while (ps.size < n && guard < n * 50) { guard += 1; draw(ps) }
    ps.toSeq
  }

  /** Random lake-style table id, e.g. "QCXMIM62QXN0" (Fig. 4). */
  def tableId(rng: Random, len: Int = 12): String = {
    val chars = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    (0 until len).map(_ => chars(rng.nextInt(chars.length))).mkString
  }
}

/** Labeled pairs of distinct tables, at most one per unordered pair. */
final class PairSet {
  private val pairs = scala.collection.mutable.ArrayBuffer.empty[PairExample]
  private val seen  = scala.collection.mutable.HashSet.empty[(String, String)]

  def size: Int = pairs.size
  def toSeq: Seq[PairExample] = pairs.toSeq

  /** Keeps (a, b) unless a == b or the pair is in; `label` is computed only for a kept pair. */
  def add(a: String, b: String)(label: => Double): Unit =
    if (a != b && seen.add(if (a < b) (a, b) else (b, a))) pairs += PairExample(a, b, Array(label))
}
