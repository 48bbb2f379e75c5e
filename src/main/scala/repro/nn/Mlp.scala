package repro.nn

import scala.util.Random

import repro.core.Parallel

/** Deterministic feed-forward network — the repro's substitute for the
  * finetuned BERT cross-encoder head (see DESIGN.md §1). One hidden ReLU
  * layer, Adam optimizer, three loss modes:
  *
  *  - [[Mlp.Binary]]      sigmoid output + BCE (classification tasks)
  *  - [[Mlp.Regression]]  linear output + MSE (regression tasks)
  *  - [[Mlp.MultiLabel]]  per-label sigmoid + BCE (ECB Join)
  *
  * Inputs are standardized with train-set statistics. Training early-stops
  * on validation loss. Every experiment trains with the one setting below;
  * only the seed varies.
  */
object Mlp {
  sealed trait Task
  case object Binary     extends Task
  case object Regression extends Task
  /** nLabels independent sigmoid outputs. */
  case class MultiLabel(nLabels: Int) extends Task

  // Adam step size, mini-batch size and L2 weight decay of every experiment.
  private val Lr: Double     = 5e-3
  private val BatchSize: Int = 64
  private val L2: Double     = 1e-5
  // Hidden ReLU units (a multiple of 4, see `forward`), the epoch cap, and
  // the epochs without a validation-loss gain that end training. The paper
  // finetunes with patience 5 (§6), but one epoch here is only 20–50 Adam
  // steps and the 10% validation split is noisy, so every experiment waits 20.
  private val Hidden: Int    = 32
  private[nn] val MaxEpochs: Int = 300
  private[nn] val Patience: Int  = 20
  // Multiply-adds (rows × inputs × hidden units) from which a training or
  // prediction phase is split over a `Parallel` gang; below it the phase
  // runs on the calling thread alone, because handing out its chunks
  // would cost more than they save.
  private val Crossover: Long = 8192L

  /** Train on (features, labels) from the weights and shuffles that `seed`
    * draws; labels row length is 1 except MultiLabel.
    */
  def train(task: Task,
            xTrain: Array[Array[Double]], yTrain: Array[Array[Double]],
            xValid: Array[Array[Double]], yValid: Array[Array[Double]],
            seed: Long): Mlp = {
    require(xTrain.nonEmpty, "empty training set")
    val m = new Mlp(task, xTrain.head.length, seed)
    m.fit(xTrain, yTrain, xValid, yValid)
    m
  }
}

final class Mlp private (val task: Mlp.Task, val nIn: Int, seed: Long) {
  import Mlp._

  private val nOut: Int = task match { case MultiLabel(n) => n; case _ => 1 }
  private val nHid = Hidden

  // Parameters: W1 (nHid x nIn), b1, W2 (nOut x nHid), b2.
  private val rng = new Random(seed)
  private val w1 = Array.fill(nHid, nIn)(rng.nextGaussian() * math.sqrt(2.0 / math.max(1, nIn)))
  private val b1 = Array.fill(nHid)(0.0)
  private val w2 = Array.fill(nOut, nHid)(rng.nextGaussian() * math.sqrt(2.0 / nHid))
  private val b2 = Array.fill(nOut)(0.0)

  // Standardization fit on train.
  private val mu: Array[Double]    = Array.fill(nIn)(0.0)
  private val sigma: Array[Double] = Array.fill(nIn)(1.0)

  // Adam state.
  private def zeros2(r: Int, c: Int) = Array.fill(r, c)(0.0)
  private val mW1 = zeros2(nHid, nIn); private val vW1 = zeros2(nHid, nIn)
  private val mB1 = new Array[Double](nHid); private val vB1 = new Array[Double](nHid)
  private val mW2 = zeros2(nOut, nHid); private val vW2 = zeros2(nOut, nHid)
  private val mB2 = new Array[Double](nOut); private val vB2 = new Array[Double](nOut)
  private var adamT = 0

  private var ranEpochs = 0
  private var lowestLoss = Double.NaN

  /** Epochs that training ran. */
  def epochs: Int = ranEpochs

  /** The validation loss of the epoch whose weights training kept (NaN if
    * none was finite).
    */
  def bestLoss: Double = lowestLoss

  private def standardize(x: Array[Double]): Array[Double] = {
    val out = new Array[Double](nIn)
    var i = 0
    while (i < nIn) {
      val v = x(i)
      out(i) = if (v.isNaN) 0.0 else (v - mu(i)) / sigma(i)
      i += 1
    }
    out
  }

  private def fitStandardizer(xs: Array[Array[Double]]): Unit = {
    var i = 0
    while (i < nIn) {
      var s = 0.0; var c = 0
      xs.foreach { x => if (!x(i).isNaN) { s += x(i); c += 1 } }
      mu(i) = if (c == 0) 0.0 else s / c
      var v = 0.0
      xs.foreach { x => if (!x(i).isNaN) { val d = x(i) - mu(i); v += d * d } }
      sigma(i) = if (c == 0) 1.0 else math.max(1e-8, math.sqrt(v / math.max(1, c)))
      i += 1
    }
  }

  /** Forward pass on a standardized input into `h` (hidden) and `o`
    * (output). Hidden units are computed 4 per sweep over ``z`` (``nHid``
    * is a multiple of 4); each still sums ``b1(j) + Σ_i w1(j)(i) · z(i)``
    * in ascending ``i``.
    */
  private def forward(z: Array[Double], h: Array[Double], o: Array[Double]): Unit = {
    var j = 0
    while (j < nHid) {
      val r0 = w1(j); val r1 = w1(j + 1); val r2 = w1(j + 2); val r3 = w1(j + 3)
      var s0 = b1(j); var s1 = b1(j + 1); var s2 = b1(j + 2); var s3 = b1(j + 3)
      var i = 0
      while (i < nIn) {
        val zi = z(i)
        s0 += r0(i) * zi; s1 += r1(i) * zi; s2 += r2(i) * zi; s3 += r3(i) * zi
        i += 1
      }
      h(j) = relu(s0); h(j + 1) = relu(s1); h(j + 2) = relu(s2); h(j + 3) = relu(s3)
      j += 4
    }
    var k = 0
    while (k < nOut) {
      var s = b2(k)
      val row = w2(k)
      var j2 = 0
      while (j2 < nHid) { s += row(j2) * h(j2); j2 += 1 }
      o(k) = task match {
        case Regression => s
        case _          => 1.0 / (1.0 + math.exp(-s))
      }
      k += 1
    }
  }

  private def relu(s: Double): Double = if (s > 0) s else 0.0

  /** Raw model outputs (probabilities for classification, value for regression). */
  def predict(x: Array[Double]): Array[Double] = {
    val o = new Array[Double](nOut)
    forward(standardize(x), new Array[Double](nHid), o)
    o
  }

  /** `xs.map(predict)`, split by rows over a gang when the set is wide
    * enough; each row's outputs are those of `predict`.
    */
  def predictAll(xs: Array[Array[Double]]): Array[Array[Double]] = {
    val out = new Array[Array[Double]](xs.length)
    Parallel.gang(g => split(g, xs.length, xs.length)(i => out(i) = predict(xs(i))))
    out
  }

  /** Runs `f` on every index below `n`: on the gang when the phase's work,
    * `rows` × inputs × hidden units multiply-adds, reaches `Crossover`,
    * else on this thread alone in ascending order.
    */
  private def split(g: Parallel.Gang, n: Int, rows: Int)(f: Int => Unit): Unit =
    if (rows.toLong * nIn * nHid >= Crossover) g.foreach(n)(f)
    else {
      var i = 0
      while (i < n) { f(i); i += 1 }
    }

  /** Mean loss over a standardized set (BCE or MSE per task). The rows'
    * terms are computed split by rows, then summed in (row, output) order.
    */
  private def loss(g: Parallel.Gang, zs: Array[Array[Double]], ys: Array[Array[Double]]): Double = {
    val terms = new Array[Double](zs.length * nOut)
    split(g, zs.length, zs.length) { r =>
      val p = new Array[Double](nOut)
      forward(zs(r), new Array[Double](nHid), p)
      val y = ys(r)
      var k = 0
      while (k < nOut) {
        terms(r * nOut + k) = task match {
          case Regression => (p(k) - y(k)) * (p(k) - y(k))
          case _ =>
            val pc = math.min(1 - 1e-9, math.max(1e-9, p(k)))
            -(y(k) * math.log(pc) + (1 - y(k)) * math.log(1 - pc))
        }
        k += 1
      }
    }
    var total = 0.0
    var t = 0
    while (t < terms.length) { total += terms(t); t += 1 }
    total / math.max(1, terms.length)
  }

  /** One Adam step on `p` from `g`, the gradient summed over a batch of
    * `bs` rows: the step takes the batch mean, plus the L2 term when
    * `decay` (weights, not biases).
    */
  private def adam(p: Array[Double], g: Array[Double], m: Array[Double], v: Array[Double],
                   bs: Int, decay: Boolean): Unit = {
    val b1c = 1 - math.pow(0.9, adamT)
    val b2c = 1 - math.pow(0.999, adamT)
    var i = 0
    while (i < p.length) {
      val gi = if (decay) g(i) / bs + L2 * p(i) else g(i) / bs
      m(i) = 0.9 * m(i) + 0.1 * gi
      v(i) = 0.999 * v(i) + 0.001 * gi * gi
      p(i) -= Lr * (m(i) / b1c) / (math.sqrt(v(i) / b2c) + 1e-8)
      i += 1
    }
  }

  private def fit(xTrain: Array[Array[Double]], yTrain: Array[Array[Double]],
                  xValid: Array[Array[Double]], yValid: Array[Array[Double]]): Unit = {
    fitStandardizer(xTrain)
    val z = xTrain.map(standardize)
    val (zStop, yStop) = if (xValid.nonEmpty) (xValid.map(standardize), yValid) else (z, yTrain)
    val n = z.length
    val order = Array.tabulate(n)(identity)
    val buf = new Buffers(math.min(n, BatchSize))
    var bestValid = Double.MaxValue
    var sincBest = 0
    var best: Option[Snapshot] = None

    Parallel.gang { g =>
      while (ranEpochs < MaxEpochs && sincBest <= Patience) {
        // Fisher-Yates with the model's rng: deterministic given the seed.
        var i = n - 1
        while (i > 0) { val j = rng.nextInt(i + 1); val t = order(i); order(i) = order(j); order(j) = t; i -= 1 }

        var start = 0
        while (start < n) {
          val end = math.min(n, start + BatchSize)
          trainBatch(g, buf, z, yTrain, order, start, end)
          start = end
        }

        val vl = loss(g, zStop, yStop)
        if (vl < bestValid - 1e-6) { bestValid = vl; lowestLoss = vl; sincBest = 0; best = Some(snapshot()) }
        else sincBest += 1
        ranEpochs += 1
      }
    }
    best.foreach(restore)
  }

  private case class Snapshot(w1: Array[Array[Double]], b1: Array[Double],
                              w2: Array[Array[Double]], b2: Array[Double])
  private def snapshot(): Snapshot =
    Snapshot(w1.map(_.clone()), b1.clone(), w2.map(_.clone()), b2.clone())
  private def restore(s: Snapshot): Unit = {
    s.w1.indices.foreach(i => Array.copy(s.w1(i), 0, w1(i), 0, nIn))
    Array.copy(s.b1, 0, b1, 0, nHid)
    s.w2.indices.foreach(i => Array.copy(s.w2(i), 0, w2(i), 0, nHid))
    Array.copy(s.b2, 0, b2, 0, nOut)
  }

  /** One fit's mini-batch buffers, reused by every batch: each row's
    * hidden activations `h` and output error `d` (o − t), and the hidden
    * layer's gradients.
    */
  private final class Buffers(rows: Int) {
    val h: Array[Array[Double]] = Array.ofDim[Double](rows, nHid)
    val d: Array[Array[Double]] = Array.ofDim[Double](rows, nOut)
    val gW1: Array[Array[Double]] = Array.ofDim[Double](nHid, nIn)
    val gB1 = new Array[Double](nHid)
  }

  /** One Adam step on the batch `order(start until end)`, in two phases.
    * Phase 1, split by rows: each row's forward pass and output error.
    * Phase 2, split by hidden unit `j`: `dH(j)` for each row, `gW1(j)`
    * and `gB1(j)` summed over the rows in ascending order, then Adam on
    * `w1(j)`. The output layer's gradients and the rest of Adam stay on
    * this thread. Every sum adds the same terms in the same order whatever
    * thread runs it, so the chunking changes no bit.
    */
  private def trainBatch(g: Parallel.Gang, buf: Buffers, z: Array[Array[Double]], y: Array[Array[Double]],
                         order: Array[Int], start: Int, end: Int): Unit = {
    val bs = end - start
    split(g, bs, bs) { r =>
      val row = order(start + r)
      val d = buf.d(r)
      forward(z(row), buf.h(r), d)
      // dL/do: for sigmoid+BCE and linear+MSE alike this is (o - t) (MSE
      // scaled by 2 absorbed into lr).
      val t = y(row)
      var k = 0
      while (k < nOut) { d(k) = d(k) - t(k); k += 1 }
    }

    val gW2 = Array.ofDim[Double](nOut, nHid)
    val gB2 = new Array[Double](nOut)
    var r = 0
    while (r < bs) {
      val h = buf.h(r); val d = buf.d(r)
      var k = 0
      while (k < nOut) {
        val gw = gW2(k); val dk = d(k)
        var j = 0
        while (j < nHid) { gw(j) += dk * h(j); j += 1 }
        gB2(k) += dk
        k += 1
      }
      r += 1
    }

    adamT += 1
    split(g, nHid, bs) { j =>
      val gw = buf.gW1(j)
      java.util.Arrays.fill(gw, 0.0)
      var gb = 0.0
      var r = 0
      while (r < bs) {
        if (buf.h(r)(j) > 0) {
          val d = buf.d(r)
          var s = 0.0
          var k = 0
          while (k < nOut) { s += d(k) * w2(k)(j); k += 1 }
          if (s != 0.0) {
            val x = z(order(start + r))
            var i = 0
            while (i < nIn) { gw(i) += s * x(i); i += 1 }
            gb += s
          }
        }
        r += 1
      }
      buf.gB1(j) = gb
      adam(w1(j), gw, mW1(j), vW1(j), bs, decay = true)
    }
    adam(b1, buf.gB1, mB1, vB1, bs, decay = false)
    var k = 0
    while (k < nOut) { adam(w2(k), gW2(k), mW2(k), vW2(k), bs, decay = true); k += 1 }
    adam(b2, gB2, mB2, vB2, bs, decay = false)
  }
}
