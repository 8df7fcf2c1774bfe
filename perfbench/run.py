#!/usr/bin/env python3
"""The repository benchmark: builds perfbench, runs one workload and prints
every metric BENCHMARK.json names for the pass, as `name value unit` lines,
then one JSON result line.

    python3 perfbench/run.py --workload wg-bp-ml --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-check     # every workload at toy scale

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); fixtures live there while a run lasts and are removed after
it. A traced run (--trace 1) reports the per-layer metrics and writes its
spans as Chrome trace JSON to <build>/perfbench-traces/.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures and builds the perfbench binary; returns its path."""
    out = os.path.join(build_root(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, trace, toy=False):
    """Runs one workload; returns the binary's result object."""
    work = os.path.join(build_root(), "perfbench-work", f"{workload}-{seed}-{os.getpid()}")
    traces = os.path.join(build_root(), "perfbench-traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work", os.path.relpath(work),
           "--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json")]
    if toy:
        cmd.append("--toy")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: perfbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def select(result, wanted):
    """The wanted metrics, each checked to be present, finite and in its unit."""
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            raise RuntimeError(f"metric {m['name']} missing or not finite")
        if got["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} in {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def self_check(binary, spec):
    """Every workload, both passes, at toy scale: each metric BENCHMARK.json
    names must be present, finite and in its unit, with no failed operation."""
    t0 = time.time()
    for w in spec["workloads"]:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run_workload(binary, w["name"], 1, 1, trace, toy=True)
            select(result, wanted)
            if result["failed"] != 0 or result["attempted"] < 1:
                raise RuntimeError(f"{w['name']}: {result['failed']} of "
                                   f"{result['attempted']} operations failed")
            log(f"self-check {w['name']} trace={int(trace)}: {len(wanted)} metrics ok")
    print(f"self-check passed in {time.time() - t0:.1f} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    try:
        spec = load_spec()
        binary = build()
        if args.self_check:
            self_check(binary, spec)
            return 0
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise RuntimeError(f"unknown workload {args.workload!r}; one of {names}")
        result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
        metrics = select(result, spec["per_layer"] if args.trace else spec["end_to_end"])
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1

    attempted, failed = int(result["attempted"]), int(result["failed"])
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    # Failed operations over attempted; carried by the result line's
    # attempted/failed rather than as a metric, since it is 0 when healthy.
    print(f"fail_frac {failed / attempted!r} 1")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
