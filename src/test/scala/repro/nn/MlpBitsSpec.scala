package repro.nn

import org.scalatest.funsuite.AnyFunSuite

/** Pins the exact bits of trained `Mlp` predictions, so any rewrite of the
  * forward pass or the training loop must keep every floating-point
  * operation in the same order. The sigmoid and the loss call `math.exp`
  * and `math.log`, whose last bit may differ between JVM builds; the bits
  * were taken on OpenJDK 17 on x86-64.
  */
class MlpBitsSpec extends AnyFunSuite {

  private val nIn = 7

  private def data(seed: Int, n: Int, nOut: Int, task: Mlp.Task): (Array[Array[Double]], Array[Array[Double]]) = {
    val rng = new scala.util.Random(seed)
    val xs = Array.fill(n)(Array.fill(nIn)(if (rng.nextInt(20) == 0) Double.NaN else rng.nextGaussian() * 3 + 1))
    val ys = xs.map { x =>
      Array.tabulate(nOut) { k =>
        val s = x.indices.map(i => if (x(i).isNaN) 0.0 else x(i) * ((i + k) % 3 - 1)).sum
        task match {
          case Mlp.Regression => s
          case _              => if (s > 0) 1.0 else 0.0
        }
      }
    }
    (xs, ys)
  }

  private def bits(task: Mlp.Task, hidden: Int, withValid: Boolean): Seq[String] = {
    val nOut = task match { case Mlp.MultiLabel(n) => n; case _ => 1 }
    val (xs, ys) = data(11, 160, nOut, task)
    val (xTr, yTr) = (xs.take(120), ys.take(120))
    val (xVa, yVa) = if (withValid) (xs.slice(120, 150), ys.slice(120, 150)) else (Array.empty[Array[Double]], Array.empty[Array[Double]])
    val m = Mlp.train(task, xTr, yTr, xVa, yVa, Mlp.Config(hidden = hidden, epochs = 200, seed = 3))
    xs.takeRight(4).flatMap(m.predict).map(p => java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(p))).toSeq
  }

  // Raw bits of the predictions on the last 4 rows, taken from the
  // single-accumulator forward pass that standardized the validation set on
  // every epoch.
  private val cases = Seq(
    ("binary", Mlp.Binary, 32, true,
      Seq("3feffeee10eb5346", "3e93b383fdda6d63", "3eb4848037647f38", "3fef8a8b6c357188")),
    ("binary", Mlp.Binary, 5, true,
      Seq("3fefe380441f931c", "3f2246753f0759fb", "3f46985ed3e5b8d2", "3fed9ad56cb108a7")),
    ("binary, no validation set", Mlp.Binary, 5, false,
      Seq("3feff191c8ccd986", "3f0ecfb4857242dd", "3f30c5cda839621f", "3fee54c67642abdb")),
    ("regression", Mlp.Regression, 32, true,
      Seq("401a04263719dbf0", "c021111a990be5b5", "c0217fb5dd9892b4", "400a17cbb5286b03")),
    ("regression", Mlp.Regression, 5, true,
      Seq("40198670f63cc6d8", "c01e9f31b8708182", "c02085b4bf6fba22", "4010178c6ddbe370")),
    ("multi-label", Mlp.MultiLabel(3), 32, true,
      Seq("3fefff4b4f4fa8c7", "3f6e3e9e3802f8f2", "3f91b2d86c6af825", "3ec0455e799b25f0",
          "3fefcf701aa35990", "3feff759fd460383", "3ed0a3cfec383c98", "3f71e38c5e237c0d",
          "3feffffffe4204d8", "3fef8d485afedc7c", "3f85a7138a1ea032", "3fa8ee49a2737b34")),
    ("multi-label", Mlp.MultiLabel(3), 5, true,
      Seq("3feffd788807dfdd", "3f90de2c1e6f3661", "3fad9580e0eea624", "3f45f78890ca3d18",
          "3feaa8412b13f67a", "3fefc13baf42e123", "3f49048544305d3a", "3fcbb9eae0170d6a",
          "3feff9039c1a3172", "3fefaa47c11c426e", "3fa21ce93931a574", "3fb61753caf41c97")),
  )

  cases.foreach { case (name, task, hidden, withValid, expected) =>
    test(s"$name predictions with hidden = $hidden keep their exact bits") {
      assert(bits(task, hidden, withValid) == expected)
    }
  }
}
