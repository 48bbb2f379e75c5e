#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result.

    python3 perfbench/run.py --workload ingest|finetune|search|all \
        --seed N --seconds S --trace 0|1

Run it from the root of the repository. On first use it builds the
program and the harness from source with sbt (perfbench/build.sbt); later
runs reuse the build while the sources are unchanged. One JVM then runs
the workload (perfbench.Main) and writes its raw numbers; this script
derives the metrics that BENCHMARK.json names, prints them with their unit
and direction, writes the result to perfbench/out/results/, and prints as
its last line {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
# A run must end within 180 s, and within 900 s when it builds first.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 700
HEAP = "3g"

# The JPMS opens Spark needs on JDK 17+, as build.sbt gives the test JVM.
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")] + [
    "-Djdk.reflect.useDirectMethodHandle=false", "--enable-native-access=ALL-UNNAMED"]

BUILD_INPUTS = ["build.sbt", "project/build.properties", "src/main", "jobs",
                "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src"]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_hash():
    h = hashlib.sha256()
    for rel in BUILD_INPUTS:
        p = ROOT / rel
        files = sorted(f for f in p.rglob("*") if f.is_file()) if p.is_dir() else [p]
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """sbt-compiles the program and the harness unless the sources are
    unchanged since the last build; returns the runtime classpath."""
    stamp, cp_file = OUT / "build.stamp", OUT / "classpath.txt"
    digest = source_hash()
    if stamp.exists() and cp_file.exists() and stamp.read_text() == digest:
        return cp_file.read_text().strip()
    log("building with sbt")
    t0 = time.time()
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=HERE, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=BUILD_LIMIT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or ".jar" not in lines[-1]:
        sys.stderr.write(proc.stdout[-4000:])
        raise SystemExit("perfbench: build failed")
    OUT.mkdir(parents=True, exist_ok=True)
    cp_file.write_text(lines[-1].strip())
    stamp.write_text(digest)
    log(f"built in {time.time() - t0:.0f} s")
    return lines[-1].strip()


def git_sha():
    """The commit checked out at ROOT; None when ROOT is not a git work tree of its own."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def run_jvm(classpath, workload, seed, seconds, trace):
    """Runs perfbench.Main; returns its raw numbers, or None if it failed or overran."""
    cores = len(os.sched_getaffinity(0))
    work = OUT / f"work-{os.getpid()}"
    raw_file = work / "raw.json"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    cmd = [str(java), f"-Xmx{HEAP}", "-Dfile.encoding=UTF-8", "-Dstdout.encoding=UTF-8",
           "-Dspark.driver.host=127.0.0.1", f"-Djava.io.tmpdir={work / 'tmp'}", *JVM_OPENS,
           "-cp", classpath, "perfbench.Main", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--cores", str(cores),
           "--work", str(work), "--out", str(raw_file)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload}: overran its {RUN_LIMIT_S} s limit; recorded as failed")
        code = None
    raw = json.loads(raw_file.read_text(encoding="utf-8")) if code == 0 and raw_file.exists() else None
    shutil.rmtree(work, ignore_errors=True)
    if code not in (0, None):
        log(f"{workload}: JVM exited with code {code}")
    return raw


def run_workload(spec, classpath, workload, seed, seconds, trace):
    """Runs one workload; returns its result line (a dict)."""
    raw = run_jvm(classpath, workload, seed, seconds, trace)
    metrics_spec = spec["per_layer"] if trace else spec["end_to_end"]
    if raw is None:
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        record(workload, seed, trace, result, None, {})
        return result
    derived = stats.derive(raw)
    ops = raw["ops"]
    attempted = ops["calls"] + ops["checks"]
    failed = ops["thrown"] + ops["checks_failed"]
    metrics = {m["name"]: {"value": derived[m["name"]], "unit": m["unit"]} for m in metrics_spec}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record(workload, seed, trace, result, raw, derived)
    print(f"== {workload} (seed {seed}, trace {trace}): {len(raw['passes'])} passes, "
          f"error_rate {stats.error_rate(ops['calls'], ops['thrown'], ops['checks'], ops['checks_failed']):.4f} "
          f"= {failed}/{attempted}")
    for m in metrics_spec:
        print(f"  {m['name']:<36} {derived[m['name']]:>16.6g} {m['unit']:<8} {m['better']} is better")
    return result


def record(workload, seed, trace, result, raw, derived):
    """Writes the run's result, with its environment, phases and samples."""
    env = dict(raw["env"]) if raw else {}
    env.update(git_sha=git_sha(), source_sha256=source_hash(), python=sys.version.split()[0])
    doc = {"workload": workload, "seed": seed, "trace": trace, "env": env, "result": result,
           "phases_s": {k: raw[k] for k in ("session_s", "setup_reps_s", "warmup_s")} if raw else {},
           "pass_walls_s": [(p["end_ns"] - p["start_ns"]) / 1e9 for p in raw["passes"]] if raw else [],
           "all_metrics": derived,
           "samples": raw["samples"] if raw else {},
           # Which percentile of each timing still has 10 samples above it (None: not even p50).
           "tail_percentile": {k: stats.highest_percentile(len(v)) for k, v in raw["samples"].items()}
                              if raw else {},
           "failures": raw["failures"] if raw else ["run failed or overran its time limit"]}
    d = OUT / "results"
    d.mkdir(parents=True, exist_ok=True)
    (d / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(doc, indent=1, ensure_ascii=False), encoding="utf-8")


def main():
    sys.stdout.reconfigure(encoding="utf-8")
    sys.stderr.reconfigure(encoding="utf-8")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala").is_dir() or not (ROOT / "build.sbt").is_file():
        raise SystemExit("perfbench: the program's sources (build.sbt, src/main/scala) are missing")
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        raise SystemExit(f"perfbench: unknown workload {args.workload}; one of {names} or all")

    classpath = build()
    results = {w: run_workload(spec, classpath, w, args.seed, args.seconds, args.trace)
               for w in workloads}
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}
    print(json.dumps(final, ensure_ascii=False), flush=True)
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
