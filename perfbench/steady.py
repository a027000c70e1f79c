#!/usr/bin/env python3
"""Steadiness tool: run every workload repeatedly and report each metric's
median, quartiles and spread.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds N] [--trace] [--json out.json]
                                [--against earlier.json]

Run from the root of a checkout. Each run goes through perfbench/run.py with
its own seed (first-seed, first-seed + 1, ...). For every end-to-end metric
the tool prints the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median. It also checks that every
run was correct and that the share of failed operations is the same in all
runs. With --trace it makes one traced run per seed as well, and prints the
per-layer medians and the tracing overhead: the gap between the traced and
the untraced end-to-end medians. With --against (a summary an earlier set
wrote with --json) it also checks that no end-to-end median is worse than
that set's by more than the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    trace_doc = None
    if trace:
        path = os.path.join(ROOT, ".bench_out", f"trace-{workload}-{seed}.json")
        with open(path) as f:
            trace_doc = json.load(f)
    return result, trace_doc, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", help="also write the summary here")
    parser.add_argument("--against", help="an earlier set's --json summary")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results, traces, walls = [], [], []
        for seed in seeds:
            result, _, wall = run_once(workload, seed, args.seconds, False)
            results.append(result)
            walls.append(wall)
            if args.trace:
                traced, doc, _ = run_once(workload, seed, args.seconds, True)
                traces.append((traced, doc))
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n== {workload}: {len(results)} runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s, correct={correct}, "
              f"failed shares={sorted(shares)}")
        ok &= correct and len(shares) == 1
        rows = {}
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, spread = summarize(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag, ok = "  OVER BOUND", False
            elif bound is not None and spread > bound / 3:
                flag = "  over bound/3"
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{bound if bound is not None else '':>6}{flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "values": values}
        entry = {"end_to_end": rows, "walls": walls, "correct": correct,
                 "failed_shares": sorted(shares)}
        if workload in earlier:
            before = earlier[workload]
            print(f"-- against the earlier set (share by which the median is worse)")
            for name, row in rows.items():
                old = before["end_to_end"][name]["median"]
                worse = (row["median"] - old) / old if old else 0.0
                if not lower_is_better[name]:
                    worse = -worse
                flag = ""
                if worse > bounds[name]:
                    flag, ok = "  WORSE THAN BOUND", False
                print(f"{name:34} {worse:+8.3f}{flag}")
            if before["failed_shares"] != entry["failed_shares"]:
                print(f"failed shares differ: {before['failed_shares']} earlier")
                ok = False
        if args.trace:
            layers = {}
            print(f"-- per-layer (traced runs)")
            for name in traces[0][0]["metrics"]:
                values = [t["metrics"][name]["value"] for t, _ in traces]
                med, q1, q3, spread = summarize(values)
                layers[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
                print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")
            overhead = {}
            print(f"-- tracing overhead (traced median / untraced median - 1)")
            for name, row in rows.items():
                traced = [doc["end_to_end"][name] for _, doc in traces]
                gap = statistics.median(traced) / row["median"] - 1 if row["median"] else 0.0
                overhead[name] = gap
                print(f"{name:34} {gap:+8.3f}")
            entry["per_layer"] = layers
            entry["trace_overhead"] = overhead
        summary[workload] = entry
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
    print("\nall spreads within bounds and failure shares equal" if ok
          else "\nSTEADINESS CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
