#!/usr/bin/env python3
"""Compare benchmark run records and flag comparisons across hosts.

Each run of the benchmark writes `.bench_out/<workload>-seed<n>-trace<t>.json`
holding its host, result and (when traced) spans. Give this script two sets
of such records, a base and a candidate; it pairs them by workload and trace
flag, prints each metric's median on both sides and their ratio, and warns
when the two sides were measured on different hosts or builds.

    python3 benchmark/compare.py base/.bench_out cand/.bench_out
"""

import json
import pathlib
import statistics
import sys

# Host fields that must match for a timing comparison to mean anything.
HOST_KEYS = ("nproc", "cpu", "rustc", "profile")
# Median effective parallelism (two-thread over one-thread burn) of the two
# sides may differ by this much.
PARALLELISM_TOLERANCE = 0.25


def load(path):
    files = sorted(pathlib.Path(path).glob("*.json")) if pathlib.Path(path).is_dir() else [pathlib.Path(path)]
    runs = {}
    for f in files:
        rec = json.loads(f.read_text())
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def host_differences(base_runs, cand_runs):
    diffs = []
    for k in HOST_KEYS:
        a = sorted({str(r["host"][k]) for r in base_runs})
        b = sorted({str(r["host"][k]) for r in cand_runs})
        if a != b:
            diffs.append(f"{k}: {a} vs {b}")
    pa = statistics.median(r["host"]["effective_parallelism"] for r in base_runs)
    pb = statistics.median(r["host"]["effective_parallelism"] for r in cand_runs)
    if abs(pa - pb) > PARALLELISM_TOLERANCE:
        diffs.append(f"effective_parallelism: {pa:.2f} vs {pb:.2f}")
    return diffs


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, cand = load(sys.argv[1]), load(sys.argv[2])
    cross_host = False
    for key in sorted(base.keys() & cand.keys()):
        b_runs, c_runs = base[key], cand[key]
        diffs = host_differences(b_runs, c_runs)
        cross_host |= bool(diffs)
        print(f"== {key[0]} (trace {key[1]}): {len(b_runs)} base, {len(c_runs)} candidate runs")
        for d in diffs:
            print(f"   WARNING different hosts: {d}")
        metrics = b_runs[0]["result"]["metrics"]
        for name, m in metrics.items():
            bv = statistics.median(r["result"]["metrics"][name]["value"] for r in b_runs)
            cv = statistics.median(r["result"]["metrics"][name]["value"] for r in c_runs if name in r["result"]["metrics"])
            ratio = cv / bv if bv else float("nan")
            print(f"   {name:28s} {bv:14.6g} -> {cv:14.6g} {m['unit']:8s} x{ratio:.3f}")
    if cross_host:
        print("WARNING: some comparisons span different hosts; timing ratios are not comparable")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
