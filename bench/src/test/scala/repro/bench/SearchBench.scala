package repro.bench

import repro.SparkSpec
import repro.nn.Metrics
import repro.report.SearchReport

/** Shape-only reproduction of the search experiments (Figures 8–10; the
  * paper's figures are out of table scope, but the search application is
  * the headline use of the model, so its qualitative claims are pinned
  * here): TabSketchFM's context-aware embeddings beat pure value-overlap
  * join search, and are competitive on union search.
  */
class SearchBench extends SparkSpec {

  test("Join search (Fig. 8 shape): embeddings beat overlap-only baselines") {
    val (lines, scores) = SearchReport.joinSearch(spark)
    println("==== Join search over the Wiki lake (F1@k) ====")
    lines.foreach(println)

    val ours  = Metrics.mean(scores("TabSketchFM"))
    val josie = Metrics.mean(scores("JOSIE"))
    val lsh   = Metrics.mean(scores("LSHForest"))
    val embed = Metrics.mean(scores("EmbedJoin"))
    assert(ours > josie, s"ours $ours must beat JOSIE $josie (paper: ~70% gap)")
    assert(ours > lsh, s"ours $ours must beat LSHForest $lsh")
    assert(ours > embed, s"ours $ours must beat EmbedJoin $embed")
  }

  test("Union search (Fig. 9/10 shape): embeddings are competitive") {
    val (lines, scores) = SearchReport.unionSearch(spark)
    println("==== Union search over the TUS/SANTOS corpus (F1@k) ====")
    lines.foreach(println)

    val ours = Metrics.mean(scores("TabSketchFM"))
    val best = Seq("D3L", "SANTOS", "Starmie").map(m => Metrics.mean(scores(m))).max
    assert(ours > 0.5, s"ours $ours")
    assert(ours > best - 0.1, s"ours $ours must be competitive with best baseline $best")
  }
}
