#!/usr/bin/env python3
"""Write one benchmark record, BENCH_<pr>.json, from one command.

The record is one JSON object with these parts:

- ``end_to_end``: every ``--dist`` x algo cell (fusion, btree,
  mergesort, stdsort) at ``--n`` keys, seed 1, width 64, cap 7.
  Each of 3 trials starts from empty sketch caches and runs
  through ``bench.run_with_output``, which checks its output; a cell
  keeps every trial's µs per key, their median, and the charged counters
  (word ops, key compares, height, splits), which must repeat exactly
  over the trials.
- ``census``: ``scripts/visit_census.py``'s counts per dist at the same
  n and seed.
- ``perfbench``: the last JSON line of ``perfbench/run.py`` for each of
  its three workloads at the same seed and 20 s a run, with ``--trace 0``
  and ``--trace 1``, kept verbatim (``--no-perfbench`` leaves it out).
  Its times are rescaled to perfbench's reference box.
- ``opcodes``: ``scripts/ab_pairs.py``'s ``--opcodes`` workloads counted
  on this tree alone (``--no-opcodes`` leaves it out).
- ``provenance``: the commit and whether the tree is dirty, the Python
  version, nproc, the date, and the tier-1 summary passed in with
  ``--tier1`` (the tier-1 suite does not run here).

    python3 scripts/bench_record.py --out BENCH_26.json --tier1 "336 passed, 1 failed in 489.2 s"
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import fusionsort
import fusionsort.bench as bench

from ab_pairs import CAP, OPCODE_N, cold, opcode_work, run_work, traced, untraced
from visit_census import census

ROOT = Path(__file__).resolve().parent.parent
WIDTH = 64
SEED = 1
PERFBENCH_SECONDS = 20
WORKLOADS = ("sort_uniform64", "query_mix", "sort_dense8")
COUNTERS = ("word_ops", "key_compares", "height", "splits")
TRIALS = 3  # per cell: back-to-back cold sorts have read 1.6x apart on a 2-vCPU box


def end_to_end(n: int) -> list:
    """One verified cell per (dist, algo), each trial from cold caches."""
    cells = []
    for dist in bench.DISTS:
        for algo in bench.ALGOS:
            cfg = bench.BenchConfig(algo, n, SEED, dist, WIDTH, CAP)
            us, counts = [], set()
            for _ in range(TRIALS):
                cold(fusionsort)
                rec = bench.run_with_output(cfg)[0][0]
                us.append(rec.wall_time_ns / 1e3 / max(1, n))
                counts.add(tuple(getattr(rec, name) for name in COUNTERS))
            if len(counts) != 1:
                raise SystemExit(f"{algo} {dist}: counters differ between trials: {counts}")
            cells.append({"dist": dist, "algo": algo,
                          "us_per_key": statistics.median(us), "us_per_key_trials": us,
                          **dict(zip(COUNTERS, counts.pop()))})
    return cells


def perfbench() -> dict:
    """The last output line of perfbench/run.py per trace and workload."""
    out = {}
    for trace in (0, 1):
        for workload in WORKLOADS:
            res = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(SEED), "--seconds", str(PERFBENCH_SECONDS),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            out[f"trace{trace} {workload}"] = json.loads(res.stdout.splitlines()[-1])
    return out


def opcodes() -> dict:
    """Opcode events per ab_pairs.py --opcodes workload, after one
    untraced pass over all of them."""
    work = opcode_work(fusionsort, OPCODE_N, SEED)
    for _, algo, keys, chunks in work:
        run_work(fusionsort, algo, keys, chunks, untraced)
    return {label: run_work(fusionsort, algo, keys, chunks, traced)
            for label, algo, keys, chunks in work}


def git(*args: str):
    res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--n", type=int, default=100_000, help="keys per cell")
    ap.add_argument("--no-perfbench", action="store_true",
                    help="leave the perfbench runs out")
    ap.add_argument("--no-opcodes", action="store_true",
                    help="leave the opcode counts out")
    ap.add_argument("--tier1", help="the tier-1 summary line to record")
    args = ap.parse_args()

    status = git("status", "--porcelain")
    record = {
        "provenance": {
            "commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "tier1": args.tier1},
        "config": {"n": args.n, "seed": SEED, "width": WIDTH, "cap": CAP,
                   "trials": TRIALS},
        "end_to_end": end_to_end(args.n),
        "census": {dist: census(dist, args.n, SEED) for dist in bench.DISTS},
        "perfbench": None,
        "opcodes": None,
    }
    if not args.no_perfbench:
        record["perfbench"] = {
            "seconds": PERFBENCH_SECONDS,
            "note": "verbatim last output line; times are rescaled to "
                    "perfbench's reference box",
            "runs": perfbench()}
    if not args.no_opcodes:
        record["opcodes"] = {
            "n": OPCODE_N,
            "note": "sys.settrace opcode events; C-level work not seen",
            "counts": opcodes()}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
