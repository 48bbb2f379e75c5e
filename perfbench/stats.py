"""Statistics of the benchmark: percentiles, span self time, error rate,
and the derivation of every metric in BENCHMARK.json from one run's raw
numbers (the JSON that perfbench.Main writes)."""

import math
import statistics

MODELS = ["vanilla_bert", "tapas", "tabbie", "tuta", "tabert", "tabsketchfm"]
CORPORA = ["wiki", "tus_santos"]
JOIN_METHODS = ["lshforest", "josie", "embedjoin"]
UNION_METHODS = ["d3l", "santos", "starmie"]
F1_METHODS = ["tabsketchfm_join", "tabsketchfm_union", "lshforest", "josie", "embedjoin",
              "d3l", "santos", "starmie"]
LAYERS = ["lakebench", "core", "models", "nn", "search"]


def percentile(xs, p):
    """Nearest-rank p-th percentile of xs (0 < p <= 100)."""
    if not xs:
        raise ValueError("percentile of no samples")
    s = sorted(xs)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def highest_percentile(n, min_beyond=10, candidates=(99, 95, 90, 75, 50)):
    """The highest candidate percentile with at least min_beyond samples above it, or None."""
    for p in candidates:
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, end = 0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans):
    """Span id -> its duration minus the part of it its children cover.
    Children may overlap one another; time they share counts once."""
    children = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append(sp)
    out = {}
    for sp in spans:
        kids = [(max(c["start_ns"], sp["start_ns"]), min(c["end_ns"], sp["end_ns"]))
                for c in children.get(sp["id"], [])]
        kids = [(s, e) for s, e in kids if e > s]
        out[sp["id"]] = sp["end_ns"] - sp["start_ns"] - covered(kids)
    return out


def error_rate(calls, thrown, checks, checks_failed):
    """Failed operations / operations attempted. The operations are the timed
    calls into the program and the output checks; a call that threw and a
    check that failed are failures."""
    attempted = calls + checks
    if attempted == 0:
        raise ValueError("no operations attempted")
    return (thrown + checks_failed) / attempted


def _pass_wall_s(p):
    return (p["end_ns"] - p["start_ns"]) / 1e9


def derive(raw):
    """Every metric of one run: name -> value."""
    m = {}
    passes = raw["passes"]
    untraced = [_pass_wall_s(p) for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    m["setup_s"] = raw["session_s"] + statistics.median(raw["setup_reps_s"]) + raw["warmup_s"]
    m["wall_s"] = statistics.median(untraced)
    m["heap_retained_mb"] = raw["heap_retained_mb"]

    values, counts, samples = raw["values"], raw["counts"], raw["samples"]
    n_passes = len(passes)
    n_setups = len(raw["setup_reps_s"])

    spans = raw["spans"]
    in_passes = [s for s in spans if s["pass"] >= 0]
    in_setup = [s for s in spans if s["pass"] < 0]
    n_traced = max(1, len(traced))
    selfs = self_times(spans)

    def span_ms(name, tag=None):
        """Time in the matching spans per traced pass; for work that only
        happens in set-up, per set-up."""
        def pick(ss):
            return [s for s in ss if s["name"] == name and (tag is None or s["tag"] == tag)]
        hits, per = pick(in_passes), n_traced
        if not hits:
            hits, per = pick(in_setup), n_setups
        return sum(s["end_ns"] - s["start_ns"] for s in hits) / 1e6 / per

    m["lakebench.generate_ms"] = span_ms("lakebench.generate")
    for c in ("tables", "cells", "pairs"):
        m[f"lakebench.{c}"] = counts.get(f"lakebench.{c}", 0)

    m["core.sketch_ms"] = span_ms("core.sketchAll")
    for c in CORPORA:
        m[f"core.sketch_ms.{c}"] = span_ms("core.sketchAll", c)
    sketched_cells = counts.get("lakebench.cells", 0)
    m["core.sketch_cells_per_s"] = sketched_cells / (m["core.sketch_ms"] / 1e3) if m["core.sketch_ms"] else 0.0
    m["core.jaccard_abs_err_max"] = values.get("core.jaccard_abs_err_max", 0.0)
    m["jaccard_est_err"] = values.get("jaccard_est_err", 0.0)

    featurize_ms = 0.0
    for model in MODELS:
        m[f"models.prepare_ms.{model}"] = span_ms("models.prepare", model)
        m[f"models.featurize_ms.{model}"] = span_ms("models.featurize", model)
        featurize_ms += m[f"models.featurize_ms.{model}"]
    pairs_per_pass = counts.get("models.pairs", 0) / n_passes
    m["models.pairs_per_s"] = pairs_per_pass / (featurize_ms / 1e3) if featurize_ms else 0.0

    for model in MODELS:
        m[f"nn.train_eval_ms.{model}"] = span_ms("nn.trainEval", model)
    m["nn.train_eval_calls"] = len([s for s in in_passes if s["name"] == "nn.trainEval"]) / n_traced
    m["nn.train_rows"] = counts.get("nn.train_rows", 0) / n_passes
    m["finetune_score_mean"] = values.get("finetune_score_mean", 0.0)

    m["search.join_build_ms"] = span_ms("search.embeddingsDf")
    for meth in JOIN_METHODS:
        m[f"search.join_batch_ms.{meth}"] = span_ms("search.join_batch", meth)
    for meth in UNION_METHODS:
        m[f"search.union_batch_ms.{meth}"] = span_ms("search.union_batch", meth)
    for meth in F1_METHODS:
        m[f"search.f1_at_10.{meth}"] = values.get(f"search.f1_at_10.{meth}", 0.0)
    queries = [s for s in in_passes if s["name"] == "search.join_query"]
    m["search.spark_jobs_per_query"] = sum(s["jobs"] for s in queries) / len(queries) if queries else 0.0
    m["search.shuffle_bytes_per_query"] = (
        sum(s["shuffle_write_bytes"] for s in queries) / len(queries) if queries else 0.0)
    builds = samples.get("search.embeddingsDf", [])
    m["join_index_build_s"] = statistics.median(builds) / 1e3 if builds else 0.0
    for kind in ("join", "union"):
        xs = samples.get(f"search.{kind}_query", [])
        m[f"{kind}_query_p50_ms"] = percentile(xs, 50) if xs else 0.0
        m[f"{kind}_query_p90_ms"] = percentile(xs, 90) if xs else 0.0
        m[f"{kind}_f1_at_10"] = values.get(f"{kind}_f1_at_10", 0.0)

    for key, name in (("jobs", "jobs"), ("tasks", "tasks"), ("task_ms", "task_ms"),
                      ("shuffle_write_bytes", "shuffle_write_bytes")):
        m[f"spark.{name}"] = sum(s[key] for s in in_passes) / n_traced
    traced_wall_ms = sum(_pass_wall_s(p) for p in traced) * 1e3 / n_traced
    m["spark.busy_ratio"] = m["spark.task_ms"] / (traced_wall_ms * raw["cores"]) if traced else 0.0

    for layer in LAYERS:
        hits = [s for s in in_passes if s["name"].startswith(layer + ".")]
        per = n_traced
        if not hits:
            hits, per = [s for s in in_setup if s["name"].startswith(layer + ".")], n_setups
        m[f"{layer}.self_ms"] = sum(selfs[s["id"]] for s in hits) / 1e6 / per

    if traced:
        m["trace.overhead_pct"] = (statistics.median(_pass_wall_s(p) for p in traced)
                                   / statistics.median(untraced) - 1.0) * 100.0
        gaps = []
        for i, p in enumerate(passes):
            if p["traced"]:
                top = [(s["start_ns"], s["end_ns"]) for s in in_passes if s["pass"] == i and s["parent"] == 0]
                gaps.append((p["end_ns"] - p["start_ns"] - covered(top)) / 1e6)
        m["trace.unattributed_ms"] = statistics.median(gaps)
    else:
        m["trace.overhead_pct"] = 0.0
        m["trace.unattributed_ms"] = 0.0
    return m
