package repro.lakebench

import scala.util.Random

import repro.lake.Text

/** ECB Join multi-label classification (§5.2.4): each dataset is collapsed
  * into one large table whose dimension columns now *vary* by row; for a
  * pair of datasets the labels are the dimensions on which an equi-join on
  * all shared dimensions returns rows, with an extra NOJOIN label when the
  * shared dimensions exist but the join is empty. Labels are computed by
  * actually joining (projected-tuple intersection), as the paper did.
  */
object EcbJoin {

  val LabelNames: Seq[String] = EcbLake.DimNames :+ "NOJOIN"

  def generate(seed: Long = 61, nDatasets: Int = 64): Benchmark = {
    val rng = new Random(seed)

    case class Ds(id: String, dims: Vector[String], codeSets: Map[String, Vector[String]],
                  rows: Vector[Map[String, String]])

    val datasets = (0 until nDatasets).map { i =>
      val dims = rng.shuffle(EcbLake.Dimensions).take(5 + rng.nextInt(5))
      val codeSets = dims.map { case (d, codes) =>
        val take = 1 + rng.nextInt(math.min(5, codes.size))
        d -> rng.shuffle(codes).take(take)
      }.toMap
      val nRows = 250 + rng.nextInt(350)
      val rows = Vector.fill(nRows) {
        dims.map { case (d, _) => d -> codeSets(d)(rng.nextInt(codeSets(d).size)) }.toMap
      }
      Ds(s"ECBJ$i.csv", dims.map(_._1), codeSets, rows)
    }

    // Materialize the collapsed lake tables (dim cols + TIME_PERIOD + OBS_VALUE).
    val tables = datasets.map { ds =>
      val header = ds.dims ++ Seq("TIME_PERIOD", "OBS_VALUE")
      val rows = ds.rows.zipWithIndex.map { case (assign, r) =>
        val scale = EcbLake.scaleOf(assign)
        ds.dims.map(assign) ++ Seq(
          Text.format("%04d-%02d-01", 2000 + r % 24, (r % 4) * 3 + 1),
          Text.format("%.2f", scale * (0.9 + rng.nextDouble() * 0.2)))
      }
      ds.id -> repro.lake.LakeTable(ds.id, "ECB collapsed dataset", header, rows)
    }.toMap

    def labelOf(a: Ds, b: Ds): Array[Double] = {
      val shared = a.dims.toSet.intersect(b.dims.toSet).toSeq.sorted
      val label  = new Array[Double](LabelNames.size)
      if (shared.isEmpty) { label(LabelNames.size - 1) = 1.0; return label }
      val ta = a.rows.map(r => shared.map(r)).toSet
      val tb = b.rows.map(r => shared.map(r)).toSet
      if (ta.intersect(tb).nonEmpty) shared.foreach(d => label(LabelNames.indexOf(d)) = 1.0)
      else label(LabelNames.size - 1) = 1.0
      label
    }

    val pairs = for {
      i <- datasets.indices
      j <- (i + 1) until datasets.size
    } yield PairExample(datasets(i).id, datasets(j).id, labelOf(datasets(i), datasets(j)))

    val (tr, va, te) = Benchmark.split(pairs, seed)
    Benchmark("ECB Join", MultiLabelTask(LabelNames), tables, tr, va, te)
  }
}
