package repro.models

import java.util.concurrent.{ConcurrentHashMap, ConcurrentMap}

import com.google.common.collect.MapMaker
import org.apache.spark.sql.SparkSession

import repro.core.{Parallel, TableSketcher}
import repro.lake.LakeTable
import repro.nn.RandomProjection

/** A pair featurizer: precompute per-table representations for a corpus,
  * then map a pair of table ids to a feature vector. The corpus is already
  * on the driver, so representations are computed there, one table per
  * task on the [[repro.core.Parallel]] pool, and cached per corpus so
  * sibling benchmarks over the same lake reuse them.
  */
trait PairFeaturizer {
  def name: String

  /** Returns the pair->features function for this corpus. */
  def prepare(spark: SparkSession, tables: Map[String, LakeTable]): (String, String) => Array[Double]
}

/** Corpus-keyed representation caches (benchmarks over the same lake —
  * e.g. the three Wiki tasks — share sketches/views within a JVM run).
  * The key is the corpus instance itself, compared by reference and held
  * weakly: two live corpora never share an entry, and a corpus that is no
  * longer reachable takes its representations with it.
  */
object RepCache {
  private val byCorpus: ConcurrentMap[Map[String, LakeTable], ConcurrentHashMap[String, AnyRef]] =
    new MapMaker().weakKeys().makeMap()

  /** The representation ``kind`` of ``tables``, computed on first use. */
  def getOrCompute[T <: AnyRef](tables: Map[String, LakeTable], kind: String)(compute: => T): T =
    byCorpus.computeIfAbsent(tables, _ => new ConcurrentHashMap[String, AnyRef]())
      .computeIfAbsent(kind, _ => compute).asInstanceOf[T]
}

/** TabSketchFM (ours): features from the paper's three sketch families, over
  * a corpus sketched on the driver pool without a Spark job. An ablation
  * (Tables 3–4) masks them afterwards with a [[SketchMask]].
  */
object SketchFeaturizer extends PairFeaturizer {
  val name: String = "TabSketchFM"

  def prepare(spark: SparkSession, tables: Map[String, LakeTable]): (String, String) => Array[Double] = {
    val sketches = RepCache.getOrCompute(tables, "sketches")(TableSketcher.sketchCorpus(tables))
    (a, b) => TabSketchFm.features(sketches(a), sketches(b))
  }
}

/** Trainable value-based baselines (TaBERT, TUTA) and the headers-only
  * Vanilla BERT: header features + (optionally) mean-pooled value-bag
  * cosines over the model's input window + (TUTA only) numeric-structure
  * features. A finetuned encoder sees both headers, so the header block is
  * the sketch model's ([[PairFeatures.headerFeatures]]).
  */
case class ValueModelFeaturizer(
    name: String,
    budget: ValueFeaturizer.Budget,
    useValues: Boolean,
    useNumeric: Boolean,
) extends PairFeaturizer {

  def prepare(spark: SparkSession, tables: Map[String, LakeTable]): (String, String) => Array[Double] = {
    val views = RepCache.getOrCompute(tables, s"views-$name") {
      val b = budget
      Parallel.map(tables.values.toSeq)(t => t.id -> ValueFeaturizer.view(t, b)).toMap
    }
    (a, b) => {
      val (va, vb) = (views(a), views(b))
      val h = PairFeatures.headerFeatures(va.header, vb.header)
      val v = if (useValues) ValueFeaturizer.valueFeatures(va, vb) else Array.empty[Double]
      val n = if (useNumeric) ValueFeaturizer.numericFeatures(va, vb) else Array.empty[Double]
      h ++ v ++ n
    }
  }
}

/** Frozen pretrained encoders (TAPAS, TABBIE): a fixed random-projection
  * embedding of each table's visible token bag; the downstream MLP sees
  * the two embeddings concatenated — it alone must learn any notion of
  * similarity, which is exactly the frozen-encoder handicap of §6.1.1.
  */
case class FrozenFeaturizer(name: String, budget: ValueFeaturizer.Budget, seed: Long)
    extends PairFeaturizer {

  def prepare(spark: SparkSession, tables: Map[String, LakeTable]): (String, String) => Array[Double] = {
    // 16 dims over few buckets -> heavy hash collisions: a frozen encoder's
    // lossy, task-agnostic view of the serialized table.
    val rp = new RandomProjection(16, 96, seed)
    val embs = RepCache.getOrCompute(tables, s"frozen-$name") {
      val b = budget
      Parallel.map(tables.values.toSeq) { t =>
        val v = ValueFeaturizer.view(t, b)
        val toks = v.tableBag.iterator.flatMap { case (tok, c) => Iterator.fill(math.min(c, 8))(tok) }
        t.id -> rp.embed(toks ++ v.header.allTokens)
      }.toMap
    }
    (a, b) => embs(a) ++ embs(b)
  }
}

/** The Table 2 model roster. */
object Baselines {
  import ValueFeaturizer._

  val vanillaBert: PairFeaturizer =
    ValueModelFeaturizer("Vanilla BERT", Budget(0, Int.MaxValue, 0), useValues = false, useNumeric = false)
  val tapas: PairFeaturizer  = FrozenFeaturizer("TAPAS", TapasBudget, seed = 101)
  val tabbie: PairFeaturizer = FrozenFeaturizer("TABBIE", TabbieBudget, seed = 202)
  val tuta: PairFeaturizer   = ValueModelFeaturizer("TUTA", TutaBudget, useValues = true, useNumeric = true)
  val tabert: PairFeaturizer = ValueModelFeaturizer("TaBERT", TaBertBudget, useValues = true, useNumeric = false)
  val tabSketchFm: PairFeaturizer = SketchFeaturizer

  val table2Roster: Seq[PairFeaturizer] =
    Seq(vanillaBert, tapas, tabbie, tuta, tabert, tabSketchFm)
}
