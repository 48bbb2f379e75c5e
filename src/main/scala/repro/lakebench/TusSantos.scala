package repro.lakebench

import scala.util.Random

import repro.lake.{LakeTable, Text}

/** TUS-SANTOS binary-classification benchmark (§5.1.1).
  *
  * Construction follows Nargesian et al. / Khatiwada et al.: a handful of
  * seed tables from *distinct domains* (distinct header vocabulary and
  * value domains), each split into many smaller tables by sampling rows
  * and column subsets while always preserving the key entity column
  * (SANTOS-style). Tables from the same seed are unionable; tables from
  * different seeds are not.
  *
  * Because domains have distinct header vocabularies, the benchmark is
  * solvable from column headers alone — the property the paper calls out
  * (Vanilla BERT reaches 0.99 F1 on it).
  */
object TusSantos {

  /** One column generator of a domain seed table. */
  private case class ColSpec(name: String, gen: (Random, Int) => String)

  private val Domains: Seq[(String, Seq[ColSpec])] = {
    def cat(vals: String*): (Random, Int) => String = (r, _) => vals(r.nextInt(vals.length))
    def int(lo: Int, hi: Int): (Random, Int) => String = (r, _) => (lo + r.nextInt(hi - lo)).toString
    def flt(lo: Double, hi: Double): (Random, Int) => String = (r, _) => Text.format("%.2f", lo + r.nextDouble() * (hi - lo))
    def date(y0: Int, y1: Int): (Random, Int) => String =
      (r, _) => Text.format("%04d-%02d-%02d", y0 + r.nextInt(y1 - y0), 1 + r.nextInt(12), 1 + r.nextInt(28))
    def key(prefix: String): (Random, Int) => String = (_, i) => s"$prefix-$i"

    Seq(
      "schools" -> Seq(
        ColSpec("school_name", key("School")), ColSpec("division", cat("North", "South", "East", "West", "Central")),
        ColSpec("enrolment", int(50, 2000)), ColSpec("grade_span", cat("K-6", "K-8", "7-9", "9-12")),
        ColSpec("funding", flt(1e5, 5e6)), ColSpec("inspection_date", date(2005, 2020))),
      "roads" -> Seq(
        ColSpec("highway_id", key("HWY")), ColSpec("surface_type", cat("asphalt", "gravel", "concrete", "dirt")),
        ColSpec("length_km", flt(0.5, 400)), ColSpec("lanes", int(1, 8)),
        ColSpec("maintenance_cost", flt(1e4, 1e6)), ColSpec("last_resurfaced", date(1995, 2022))),
      "permits" -> Seq(
        ColSpec("permit_number", key("PRM")), ColSpec("permit_type", cat("building", "demolition", "electrical", "plumbing")),
        ColSpec("estimated_value", flt(1e3, 2e6)), ColSpec("issued_on", date(2010, 2023)),
        ColSpec("ward", int(1, 44)), ColSpec("contractor", key("Contractor"))),
      "hospitals" -> Seq(
        ColSpec("facility", key("Hospital")), ColSpec("authority", cat("Interior", "Coastal", "Fraser", "Island", "Northern")),
        ColSpec("beds", int(10, 900)), ColSpec("occupancy_rate", flt(0.3, 1.0)),
        ColSpec("opened", date(1950, 2015)), ColSpec("budget_millions", flt(5, 900))),
      "libraries" -> Seq(
        ColSpec("branch", key("Branch")), ColSpec("municipality", cat("Springfield", "Riverton", "Lakeside", "Hillview")),
        ColSpec("collection_size", int(5000, 500000)), ColSpec("annual_visits", int(1000, 1000000)),
        ColSpec("programs_offered", int(0, 300)), ColSpec("established", date(1900, 2010))),
      "fisheries" -> Seq(
        ColSpec("vessel_id", key("VSL")), ColSpec("species", cat("salmon", "halibut", "herring", "crab", "tuna")),
        ColSpec("catch_tonnes", flt(0.1, 120)), ColSpec("landing_port", cat("Prince Rupert", "Victoria", "Nanaimo", "Tofino")),
        ColSpec("quota_used", flt(0, 1)), ColSpec("landed_on", date(2015, 2023))),
      "airquality" -> Seq(
        ColSpec("station_code", key("AQ")), ColSpec("pollutant", cat("PM2.5", "NO2", "O3", "SO2", "CO")),
        ColSpec("reading_ugm3", flt(0, 250)), ColSpec("measured_at", date(2018, 2023)),
        ColSpec("exceedance", cat("yes", "no")), ColSpec("monitor_elevation", int(0, 2000))),
      "payroll" -> Seq(
        ColSpec("employee_ref", key("EMP")), ColSpec("department", cat("Finance", "Parks", "Transit", "Water", "Police")),
        ColSpec("base_salary", flt(3e4, 2e5)), ColSpec("overtime_hours", int(0, 400)),
        ColSpec("union_code", cat("CUPE", "IBEW", "EXEMPT", "ATU")), ColSpec("hired", date(1990, 2022))),
      "crops" -> Seq(
        ColSpec("field_parcel", key("FLD")), ColSpec("crop", cat("wheat", "canola", "barley", "lentils", "oats")),
        ColSpec("hectares", flt(1, 800)), ColSpec("yield_per_ha", flt(0.5, 12)),
        ColSpec("irrigated", cat("yes", "no")), ColSpec("seeded", date(2012, 2023))),
      "transit" -> Seq(
        ColSpec("route_number", key("RT")), ColSpec("vehicle_class", cat("bus", "tram", "ferry", "train")),
        ColSpec("daily_boardings", int(50, 90000)), ColSpec("on_time_pct", flt(0.5, 1)),
        ColSpec("fare_zone", int(1, 5)), ColSpec("service_started", date(1980, 2020))),
      "inspections" -> Seq(
        ColSpec("restaurant", key("Rest")), ColSpec("hazard_rating", cat("low", "moderate", "high")),
        ColSpec("violations", int(0, 25)), ColSpec("inspected_on", date(2016, 2023)),
        ColSpec("reinspection_required", cat("yes", "no")), ColSpec("seats", int(8, 400))),
      "energy" -> Seq(
        ColSpec("plant_name", key("Plant")), ColSpec("fuel", cat("hydro", "wind", "solar", "gas", "biomass")),
        ColSpec("capacity_mw", flt(0.5, 3000)), ColSpec("generation_gwh", flt(0.1, 9000)),
        ColSpec("commissioned", date(1960, 2022)), ColSpec("operator", key("Op"))),
    )
  }

  /** Generate the benchmark: ``perSeed`` sampled tables per domain seed,
    * balanced positive (same seed) / negative (different seed) pairs.
    */
  def generate(seed: Long = 11, perSeed: Int = 36, nPairs: Int = 2800): Benchmark = {
    val rng = new Random(seed)

    val tables: Seq[(Int, LakeTable)] = Domains.zipWithIndex.flatMap { case ((domain, cols), d) =>
      // Materialize the seed table once, then sample row/column subsets.
      val seedRows = (0 until 600).map(i => cols.map(c => c.gen(rng, i)))
      (0 until perSeed).map { t =>
        val keep = 0 +: rng.shuffle((1 until cols.size).toVector).take(2 + rng.nextInt(cols.size - 2)).sorted
        val rows = rng.shuffle(seedRows).take(30 + rng.nextInt(120)).map(r => keep.map(r(_)))
        (d, LakeTable(s"${domain}_$t.csv", s"open data about $domain", keep.map(cols(_).name), rows))
      }
    }

    val byDomain = tables.groupBy(_._1).view.mapValues(_.map(_._2)).toMap
    val all      = tables.map(_._2)

    def pick(ts: Seq[LakeTable]): LakeTable = ts(rng.nextInt(ts.size))
    val pairs = Benchmark.drawPairs(nPairs) { ps =>
      if (ps.size % 2 == 0) {
        val d = rng.nextInt(Domains.size)
        ps.add(pick(byDomain(d)).id, pick(byDomain(d)).id)(1.0)
      } else {
        val d1 = rng.nextInt(Domains.size)
        var d2 = rng.nextInt(Domains.size)
        while (d2 == d1) d2 = rng.nextInt(Domains.size)
        ps.add(pick(byDomain(d1)).id, pick(byDomain(d2)).id)(0.0)
      }
    }

    val (tr, va, te) = Benchmark.split(pairs, seed)
    Benchmark("TUS-SANTOS", BinaryTask, all.map(t => t.id -> t).toMap, tr, va, te)
  }
}
