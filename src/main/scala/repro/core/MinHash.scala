package repro.core

/** MinHash signatures — the repo's substitute for the datasketch library
  * used by the paper (§3, sketch 2 and the content snapshot).
  *
  * A signature is ``k`` slots; slot ``i`` holds the minimum of hash
  * function ``h_i`` over the element set. Hash ``h_i`` is Scala's
  * `MurmurHash3.stringHash` with seed ``0x9747b28c + i``, widened to a
  * non-negative Long. Signatures of an empty set are all ``MinHash.Empty``
  * and estimate 0 similarity against anything.
  *
  * murmur3 scrambles each 2-char block the same way whatever the seed, so
  * [[signature]] scrambles an element's blocks once and then advances all
  * ``k`` seeds together through the mixing steps. That costs about one
  * murmur3 pass per element plus a few integer operations per (block,
  * slot), and gives exactly the bits of ``k`` separate `stringHash` calls.
  * An instance is shared across threads; every buffer is per call.
  */
final class MinHash(val k: Int) extends Serializable {
  require(k > 0, s"k must be positive, got $k")

  /** Signature of a set of string elements; null elements are skipped. */
  def signature(elems: Iterable[String]): Array[Long] = {
    import MinHash._
    val lanes = new Array[Int](k)
    // Per-slot minima as unsigned Ints with the sign bit flipped, so a
    // signed min orders them as the widened Longs would.
    val mins   = Array.fill(k)(Int.MaxValue)
    var blocks = new Array[Int](16)
    var seen   = false
    val it = elems.iterator
    while (it.hasNext) {
      val e = it.next()
      if (e != null) {
        seen = true
        val len = e.length
        val nBlocks = len >> 1
        if (blocks.length < nBlocks) blocks = new Array[Int](nBlocks)
        var b = 0
        while (b < nBlocks) { blocks(b) = scramble((e.charAt(2 * b) << 16) + e.charAt(2 * b + 1)); b += 1 }
        var i = 0
        while (i < k) { lanes(i) = SeedBase + i; i += 1 }
        // murmur3's per-block mix, all slots at once.
        b = 0
        while (b < nBlocks) {
          val kb = blocks(b)
          i = 0
          while (i < k) { lanes(i) = Integer.rotateLeft(lanes(i) ^ kb, 13) * 5 + 0xe6546b64; i += 1 }
          b += 1
        }
        // The odd tail char and the length are both xor-ed in before the
        // avalanche, so they fold into one value.
        val last = (if ((len & 1) != 0) scramble(e.charAt(len - 1)) else 0) ^ len
        i = 0
        while (i < k) {
          var h = lanes(i) ^ last
          h ^= h >>> 16; h *= 0x85ebca6b; h ^= h >>> 13; h *= 0xc2b2ae35; h ^= h >>> 16
          mins(i) = math.min(mins(i), h ^ Int.MinValue)
          i += 1
        }
      }
    }
    // Every element sets every slot, so the slots are all Empty or none is.
    Array.tabulate(k)(i => if (seen) (mins(i) ^ Int.MinValue).toLong & 0xffffffffL else Empty)
  }
}

object MinHash {
  /** Slot value of the empty-set signature. */
  val Empty: Long = Long.MaxValue

  /** Default signature width used throughout the repro (paper uses
    * datasketch's default 128; 64 keeps sketches small while leaving the
    * estimator noise that bounds R2 on the Wiki join tasks, §6.2).
    */
  val DefaultK = 64

  def apply(k: Int = DefaultK): MinHash = new MinHash(k)

  /** murmur3 seed of slot 0; slot ``i`` uses ``SeedBase + i``. */
  private val SeedBase = 0x9747b28c

  /** murmur3's seed-independent block scramble. */
  private def scramble(block: Int): Int = Integer.rotateLeft(block * 0xcc9e2d51, 15) * 0x1b873593

  def isEmpty(sig: Array[Long]): Boolean = sig.length == 0 || sig(0) == Empty

  /** Unbiased Jaccard estimate: fraction of matching slots. */
  def jaccard(a: Array[Long], b: Array[Long]): Double = {
    if (isEmpty(a) || isEmpty(b)) return 0.0
    require(a.length == b.length, s"signature width mismatch ${a.length} vs ${b.length}")
    var same = 0
    var i = 0
    while (i < a.length) { if (a(i) == b(i)) same += 1; i += 1 }
    same.toDouble / a.length
  }

  /** Containment |A∩B|/|A| estimated from the Jaccard estimate and the
    * (exact) distinct counts of the two sets: J = |A∩B| / (|A|+|B|-|A∩B|)
    * implies |A∩B| = J(|A|+|B|)/(1+J).
    */
  def containment(a: Array[Long], b: Array[Long], sizeA: Long, sizeB: Long): Double = {
    if (sizeA <= 0) return 0.0
    val j = jaccard(a, b)
    val inter = j * (sizeA + sizeB) / (1.0 + j)
    math.min(1.0, inter / sizeA)
  }

  /** LSH band keys: hash of each band of ``rowsPerBand`` slots; two sets
    * sharing any band key are candidate neighbours (LSHForest-lite).
    */
  def bandKeys(sig: Array[Long], rowsPerBand: Int): Seq[Long] = {
    if (isEmpty(sig)) return Seq.empty
    sig.grouped(rowsPerBand).zipWithIndex.map { case (band, bi) =>
      var acc = 1125899906842597L * (bi + 1)
      band.foreach(v => acc = acc * 31 + v)
      acc
    }.toSeq
  }
}
