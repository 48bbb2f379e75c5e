#!/usr/bin/env python3
"""Checks that two runs of a workload at the same seed agree exactly on
every count and score; only timings and memory may differ.

    python3 perfbench/determinism.py --workload ingest|finetune|search --seed N [--seconds S]

Exits 0 when they agree, 1 when they do not.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Metrics that are counts or scores, not timings or memory.
EXACT_PREFIXES = ("lakebench.tables", "lakebench.cells", "lakebench.pairs", "finetune_score_mean",
                  "search.f1_at_10.", "join_f1_at_10", "union_f1_at_10", "jaccard_est_err",
                  "core.jaccard_abs_err_max", "nn.train_rows", "nn.train_eval_calls")


def run_once(workload, seed, seconds):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"determinism: run of {workload} failed")
    doc = json.loads((HERE / "out" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {k: v for k, v in doc["all_metrics"].items() if k.startswith(EXACT_PREFIXES)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()
    a = run_once(args.workload, args.seed, args.seconds)
    b = run_once(args.workload, args.seed, args.seconds)
    diff = {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}
    for k in sorted(a):
        print(f"{k:<36} {a[k]!r:>24} {'differs: ' + repr(b.get(k)) if k in diff else 'same'}")
    print(f"{args.workload} seed {args.seed}: {len(a) - len(diff)}/{len(a)} counts and scores agree")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
