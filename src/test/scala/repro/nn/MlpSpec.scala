package repro.nn

import org.scalatest.funsuite.AnyFunSuite

class MlpSpec extends AnyFunSuite {

  private def xor: (Array[Array[Double]], Array[Array[Double]]) = {
    val rng = new scala.util.Random(1)
    val xs = Array.fill(400)(Array(rng.nextInt(2).toDouble, rng.nextInt(2).toDouble))
    val ys = xs.map(x => Array(if (x(0) != x(1)) 1.0 else 0.0))
    (xs, ys)
  }

  test("learns XOR (non-linearly separable)") {
    val (xs, ys) = xor
    val m = Mlp.train(Mlp.Binary, xs, ys, xs.take(50), ys.take(50), seed = 0)
    val acc = xs.indices.count(i => (m.predict(xs(i))(0) > 0.5) == (ys(i)(0) > 0.5)).toDouble / xs.length
    assert(acc > 0.95, s"accuracy $acc")
  }

  test("training is deterministic given the seed") {
    val (xs, ys) = xor
    def preds(seed: Long) = {
      val m = Mlp.train(Mlp.Binary, xs, ys, xs.take(50), ys.take(50), seed = seed)
      xs.take(10).map(x => m.predict(x)(0)).toSeq
    }
    assert(preds(7) == preds(7))
    assert(preds(7) != preds(8), "different seeds should differ")
  }

  test("fits a noiseless linear regression") {
    val rng = new scala.util.Random(2)
    val xs = Array.fill(500)(Array(rng.nextDouble(), rng.nextDouble()))
    val ys = xs.map(x => Array(0.3 * x(0) - 0.7 * x(1) + 0.2))
    val m = Mlp.train(Mlp.Regression, xs, ys, xs.take(60), ys.take(60), seed = 0)
    val r2 = Metrics.r2(ys.map(_(0)).toSeq, xs.map(x => m.predict(x)(0)).toSeq)
    assert(r2 > 0.95, s"r2 $r2")
  }

  test("multi-label learns independent labels") {
    val rng = new scala.util.Random(3)
    val xs = Array.fill(600)(Array(rng.nextDouble(), rng.nextDouble()))
    val ys = xs.map(x => Array(if (x(0) > 0.5) 1.0 else 0.0, if (x(1) > 0.5) 1.0 else 0.0))
    val m = Mlp.train(Mlp.MultiLabel(2), xs, ys, xs.take(60), ys.take(60), seed = 0)
    val f1 = Metrics.multiLabelWeightedF1(
      ys.map(_.map(_.toInt)).toSeq,
      xs.map(x => m.predict(x).map(p => if (p > 0.5) 1 else 0)).toSeq)
    assert(f1 > 0.9, s"f1 $f1")
  }

  test("NaN inputs are treated as missing (imputed to the mean)") {
    val xs = Array(Array(1.0, Double.NaN), Array(0.0, 1.0), Array(1.0, 0.0), Array(0.0, 0.0))
    val ys = Array(Array(1.0), Array(0.0), Array(1.0), Array(0.0))
    val m = Mlp.train(Mlp.Binary, xs, ys, xs, ys, seed = 0)
    val p = m.predict(Array(Double.NaN, Double.NaN))
    assert(!p(0).isNaN)
  }

  test("empty training set is rejected") {
    assertThrows[IllegalArgumentException] {
      Mlp.train(Mlp.Binary, Array.empty, Array.empty, Array.empty, Array.empty, seed = 0)
    }
  }

  test("predict output shape follows the task") {
    val xs = Array(Array(0.0), Array(1.0)); val ys = Array(Array(0.0, 1.0, 0.0), Array(1.0, 0.0, 1.0))
    val m = Mlp.train(Mlp.MultiLabel(3), xs, ys, xs, ys, seed = 0)
    assert(m.predict(Array(0.5)).length == 3)
  }

  test("binary predictions are probabilities in (0,1)") {
    val (xs, ys) = xor
    val m = Mlp.train(Mlp.Binary, xs, ys, xs.take(10), ys.take(10), seed = 0)
    xs.take(20).foreach { x =>
      val p = m.predict(x)(0)
      assert(p > 0.0 && p < 1.0)
    }
  }

  test("training reports its epochs and best validation loss, and frees the pool when it returns") {
    val rng = new scala.util.Random(4)
    val xs = Array.fill(400)(Array.fill(129)(rng.nextGaussian()))
    val ys = xs.map(x => Array(if (x(0) + x(1) > 0) 1.0 else 0.0))
    val m = Mlp.train(Mlp.Binary, xs.take(300), ys.take(300), xs.drop(300), ys.drop(300), seed = 0)
    assert(m.epochs > Mlp.Patience && m.epochs <= Mlp.MaxEpochs, s"${m.epochs} epochs")
    assert(!m.bestLoss.isNaN && !m.bestLoss.isInfinite, s"best loss ${m.bestLoss}")
    repro.core.ParallelSpec.assertPoolFree()
  }
}
