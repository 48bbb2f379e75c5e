package repro.nn

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._

import org.scalatest.funsuite.AnyFunSuite

import repro.core.Parallel

/** Pins the exact bits of trained `Mlp` predictions, so any rewrite of the
  * forward pass or the training loop must keep every floating-point
  * operation in the same order. The sigmoid and the loss call `math.exp`
  * and `math.log`, whose last bit may differ between JVM builds; the bits
  * were taken on OpenJDK 17 on x86-64.
  */
class MlpBitsSpec extends AnyFunSuite {

  private def data(seed: Int, n: Int, nIn: Int, nOut: Int, task: Mlp.Task): (Array[Array[Double]], Array[Array[Double]]) = {
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

  private def bits(task: Mlp.Task, withValid: Boolean): Seq[String] = {
    val nOut = task match { case Mlp.MultiLabel(n) => n; case _ => 1 }
    val (xs, ys) = data(11, 160, nIn = 7, nOut, task)
    val (xTr, yTr) = (xs.take(120), ys.take(120))
    val (xVa, yVa) = if (withValid) (xs.slice(120, 150), ys.slice(120, 150)) else (Array.empty[Array[Double]], Array.empty[Array[Double]])
    val m = Mlp.train(task, xTr, yTr, xVa, yVa, seed = 3)
    xs.takeRight(4).flatMap(m.predict).map(hex).toSeq
  }

  // Raw bits of the predictions on the last 4 rows. The regression and
  // multi-label cases with a validation set stop on patience before the
  // epoch cap (their bits are the same with no cap), so they pin the
  // restore of the best snapshot; the binary case with a validation set
  // improves until the cap and equals the one without.
  private val cases = Seq(
    ("binary", Mlp.Binary, true,
      Seq("3feffffbe018d1ee", "3dc88ed786098200", "3e00f49122ad0ee2", "3feff4c5c24df20e")),
    ("binary, no validation set", Mlp.Binary, false,
      Seq("3feffffbe018d1ee", "3dc88ed786098200", "3e00f49122ad0ee2", "3feff4c5c24df20e")),
    ("regression", Mlp.Regression, true,
      Seq("401a21635b75c83e", "c021323e39407be8", "c0218f24a6b26b16", "4009fe1999e3cba8")),
    ("regression, no validation set", Mlp.Regression, false,
      Seq("401a3e4773c48361", "c021b8693ae30b34", "c021d02a12941eb5", "400a75e1d8047163")),
    ("multi-label", Mlp.MultiLabel(3), true,
      Seq("3feffff8793ca347", "3f479b9602802d3d", "3f820e68665be7b4", "3e4c2bc3c0d4a356",
          "3feff2891ac68cc1", "3fefff620506f2e9", "3e69d3ca7e1ce7e0", "3f5876cfa5483b9c",
          "3feffffffffe6414", "3fefeeb3db825000", "3f68707848594126", "3fa0a092b55dc2fb")),
    ("multi-label, no validation set", Mlp.MultiLabel(3), false,
      Seq("3feffffee62ace70", "3f327dfd5afa7c0d", "3f78026924cdcba5", "3e049d40fe7a9ea9",
          "3feff9ce34320fa0", "3fefffdd2201fec7", "3e2d56b3a6543bcf", "3f49290696e31559",
          "3fefffffffffed28", "3feffa8725e15cb9", "3f5883919b3ac978", "3f9973c4bf8624f3")),
  )

  cases.foreach { case (name, task, withValid, expected) =>
    test(s"$name predictions keep their exact bits") {
      assert(bits(task, withValid) == expected)
    }
  }

  /** TabSketchFM's input width: 300 training rows are four full batches
    * and a partial one of 44, and the validation and prediction sets are
    * wide enough that `Mlp` may split them over threads. Returns the raw
    * bits of `predictAll` on the last 4 of 200 rows, after checking that
    * every row's bits equal those of `predict`.
    */
  private def wideBits(task: Mlp.Task): Seq[String] = {
    val nOut = task match { case Mlp.MultiLabel(n) => n; case _ => 1 }
    val (xs, ys) = data(5, 560, nIn = 129, nOut, task)
    val m = Mlp.train(task, xs.take(300), ys.take(300), xs.slice(300, 360), ys.slice(300, 360), seed = 4)
    val preds = m.predictAll(xs.takeRight(200))
    assert(preds.map(_.map(hex).toSeq).toSeq == xs.takeRight(200).map(m.predict(_).map(hex).toSeq).toSeq)
    preds.takeRight(4).flatten.map(hex).toSeq
  }

  private def hex(p: Double): String = java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(p))

  // Raw bits of the wide predictions, recorded from the single-threaded
  // training loop.
  private val wideCases = Seq(
    ("binary", Mlp.Binary,
      Seq("3fddba9800c384ac", "3fad6cfc443fe6cf", "3fdb6461d29d80ba", "3feb4c694eea1bed")),
    ("regression", Mlp.Regression,
      Seq("4020181e1e289557", "c036a7e309688060", "402feeb9429438f0", "402f60467b6df93d")),
    ("multi-label", Mlp.MultiLabel(3),
      Seq("3fd864e98265045b", "3fb1b4362c5742a8", "3fede01af5837ace", "3f8884db535cc0a5",
          "3fefb8a36d7015b2", "3fd168c42b864ac3", "3fd7f5ce93ef1017", "3fef53ab8e11f75c",
          "3fa219f221c06c4d", "3fec3e36d6510d53", "3fe2bb351464b834", "3fcb6fc4dc28ccdb")),
  )

  wideCases.foreach { case (name, task, expected) =>
    test(s"$name predictions at 129 inputs keep their exact bits") {
      assert(wideBits(task) == expected)
    }
  }

  test("a wide fit keeps its bits inside a pool task and beside a concurrent fit") {
    val expected = wideCases.head._3
    val inline = Parallel.map(Seq(1, 2))(_ => wideBits(Mlp.Binary))
    assert(inline == Seq(expected, expected), "fits run inline on pool threads")
    val pair = Seq.fill(2)(Future(wideBits(Mlp.Binary))(plainThread))
    assert(pair.map(Await.result(_, 120.seconds)) == Seq(expected, expected), "two fits started together")
  }

  // Each task on its own new thread, outside the pool.
  private val plainThread = ExecutionContext.fromExecutor((r: Runnable) => new Thread(r).start())
}
