package repro.nn

import scala.util.hashing.MurmurHash3

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropCheck
import repro.core.{Similarity, Tokenizer}

class RandomProjectionSpec extends AnyFunSuite {

  private val rp = new RandomProjection(24, 256, seed = 5)

  test("embeddings are L2-normalized") {
    val e = rp.embed(Seq("a", "b", "c"))
    assert(math.abs(math.sqrt(e.map(v => v * v).sum) - 1.0) < 1e-9)
  }

  test("empty input embeds to the zero vector") {
    assert(rp.embed(Seq.empty).forall(_ == 0.0))
  }

  test("embedding is deterministic and seed-dependent") {
    val e1 = rp.embed(Seq("x", "y"))
    val e2 = rp.embed(Seq("x", "y"))
    assert(e1.sameElements(e2))
    val other = new RandomProjection(24, 256, seed = 6)
    assert(!other.embed(Seq("x", "y")).sameElements(e1))
  }

  test("similar bags embed closer than dissimilar bags") {
    val base = (1 to 100).map(i => s"tok$i")
    val near = base.drop(5) ++ Seq("extra1", "extra2")
    val far  = (1 to 100).map(i => s"other$i")
    val e0 = rp.embed(base); val e1 = rp.embed(near); val e2 = rp.embed(far)
    assert(Similarity.cosine(e0, e1) > Similarity.cosine(e0, e2) + 0.3)
  }

  test("cosine of an embedding with itself is 1") {
    val e = rp.embed(Seq("p", "q"))
    assert(math.abs(Similarity.cosine(e, e) - 1.0) < 1e-9)
  }

  /** The dense row-major product: the matrix drawn as `fill(dim, buckets)`,
    * every bucket summed in ascending order, then L2-normalized.
    */
  private def referenceEmbed(dim: Int, buckets: Int, seed: Long, bag: Seq[(String, Int)]): Array[Double] = {
    val rng = new scala.util.Random(seed)
    val m = Array.fill(dim, buckets)(rng.nextGaussian() / math.sqrt(dim))
    val counts = new Array[Double](buckets)
    bag.foreach { case (t, c) => counts(math.floorMod(MurmurHash3.stringHash(t, 0x51ab2e17), buckets)) += c.toDouble }
    val out = Array.tabulate(dim) { d =>
      var s = 0.0
      var b = 0
      while (b < buckets) { s += m(d)(b) * counts(b); b += 1 }
      s
    }
    val norm = math.sqrt(out.map(v => v * v).sum)
    if (norm > 0) out.map(_ / norm) else out
  }

  private def rawBits(v: Array[Double]): Seq[Long] = v.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private val shapes = Seq((24, 256, 5L), (48, 512, 4242L), (7, 3, 11L))

  test("embed and embedCounts equal the dense product bit for bit") {
    val token = Gen.frequency(3 -> Gen.oneOf("a", "b", "c", "dd", "e1"), 1 -> PropCheck.awkwardString)
    PropCheck.check(Prop.forAllNoShrink(Gen.oneOf(shapes), Gen.listOf(token)) { case ((dim, buckets, seed), toks) =>
      val rp = new RandomProjection(dim, buckets, seed)
      val want = rawBits(referenceEmbed(dim, buckets, seed, toks.map(_ -> 1)))
      rawBits(rp.embed(toks)) == want && rawBits(rp.embedCounts(Tokenizer.bag(toks))) == want
    })
  }

  test("embedCounts equals the dense product for counts above 1 and colliding tokens") {
    val rp = new RandomProjection(24, 256, seed = 5)
    def bucket(t: String) = math.floorMod(MurmurHash3.stringHash(t, 0x51ab2e17), 256)
    val colliding = (0 until 2000).map(i => s"t$i").groupBy(bucket).values.find(_.size >= 2).get.take(2)
    assert(bucket(colliding(0)) == bucket(colliding(1)))
    val bags = Seq(
      Map.empty[String, Int],
      Map("x" -> 3, "y" -> 1, "z" -> 7),
      Map(colliding(0) -> 2, colliding(1) -> 5),
      Map(colliding(0) -> 1, colliding(1) -> 1, "w" -> 4),
    )
    bags.foreach { bag =>
      assert(rawBits(rp.embedCounts(bag)) == rawBits(referenceEmbed(24, 256, 5, bag.toSeq)), s"bag $bag")
    }
    assert(rawBits(rp.embed(Seq.empty)) == rawBits(referenceEmbed(24, 256, 5, Seq.empty)))
  }
}
