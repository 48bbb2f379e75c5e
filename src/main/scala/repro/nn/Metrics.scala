package repro.nn

/** Evaluation metrics matching the paper's reporting (§6.1.2): weighted F1
  * for (binary / multi-label) classification, R² for regression, and F1@k
  * for the search experiments (§6.3).
  */
object Metrics {

  /** Per-class F1 weighted by class support — scikit-learn's
    * ``f1_score(average="weighted")``, which the paper uses.
    */
  def weightedF1(yTrue: Seq[Int], yPred: Seq[Int]): Double = {
    require(yTrue.length == yPred.length, "length mismatch")
    if (yTrue.isEmpty) return 0.0
    val n = yTrue.length.toDouble
    yTrue.distinct.map(c => f1Of(yTrue, yPred, c) * (yTrue.count(_ == c) / n)).sum
  }

  /** Weighted F1 over independent labels of a multi-label task: each
    * label column contributes the F1 of its positive class, weighted by
    * the label's positive support (ECB Join reporting).
    */
  def multiLabelWeightedF1(yTrue: Seq[Array[Int]], yPred: Seq[Array[Int]]): Double = {
    require(yTrue.nonEmpty, "empty eval set")
    val nLabels = yTrue.head.length
    val weights = (0 until nLabels).map(l => yTrue.count(_(l) == 1).toDouble)
    val total   = weights.sum
    if (total == 0) return 0.0
    (0 until nLabels).map(l => f1Of(yTrue.map(_(l)), yPred.map(_(l)), 1) * weights(l) / total).sum
  }

  /** One-vs-rest F1 of class `c`. */
  private def f1Of(yTrue: Seq[Int], yPred: Seq[Int], c: Int): Double = {
    val tp = yTrue.indices.count(i => yTrue(i) == c && yPred(i) == c)
    val fp = yTrue.indices.count(i => yTrue(i) != c && yPred(i) == c)
    val fn = yTrue.indices.count(i => yTrue(i) == c && yPred(i) != c)
    harmonic(if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp),
             if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn))
  }

  /** Harmonic mean of precision and recall; 0 when both are 0. */
  private def harmonic(prec: Double, rec: Double): Double =
    if (prec + rec == 0) 0.0 else 2 * prec * rec / (prec + rec)

  /** Coefficient of determination. */
  def r2(yTrue: Seq[Double], yPred: Seq[Double]): Double = {
    require(yTrue.length == yPred.length && yTrue.nonEmpty, "bad eval set")
    val mean = yTrue.sum / yTrue.length
    val ssTot = yTrue.map(y => (y - mean) * (y - mean)).sum
    val ssRes = yTrue.indices.map(i => (yTrue(i) - yPred(i)) * (yTrue(i) - yPred(i))).sum
    if (ssTot == 0) { if (ssRes == 0) 1.0 else 0.0 } else 1.0 - ssRes / ssTot
  }

  /** F1 of a retrieved top-k list against a relevant set (search figures):
    * precision = hits/k, recall = hits/|relevant| (capped at k as in the
    * table-search literature when |relevant| > k).
    */
  def f1AtK(retrieved: Seq[String], relevant: Set[String], k: Int): Double = {
    val top = retrieved.take(k)
    if (top.isEmpty || relevant.isEmpty) return 0.0
    val hits = top.count(relevant.contains)
    harmonic(hits.toDouble / top.size, hits.toDouble / math.min(relevant.size, k))
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length

  def stdev(xs: Seq[Double]): Double = {
    if (xs.length < 2) return 0.0
    val m = mean(xs)
    math.sqrt(xs.map(x => (x - m) * (x - m)).sum / (xs.length - 1))
  }
}
