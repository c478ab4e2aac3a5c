"""Untraced runs: the end-to-end metrics of each workload.

Sort workloads call ``bench.run()`` once per algorithm and iteration, each
time with cold sketch caches, and report the median over iterations.
``query_mix`` builds both trees in set-up, then serves a closed-loop mix
in chunks, checking every answer after each chunk outside the timed
region, and reports the median over chunks.  Every time is rescaled to
the reference box by the calibration samples around it (``core.Speed``).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

from fusionsort import bench
from fusionsort.btree import BTree
from fusionsort.fusion_tree import FusionTree

from .core import (BUILD_REPS, CAL_REF_NS, CAP, CHUNK, COUNT_PREFIX,
                   SETUP_REPS, SPECS, Model, Speed, Tally, cold_caches, median,
                   mix_ops, now_ns, run_chunk)

SORT_ALGOS = ("fusion", "btree")

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import fusionsort.bench; "
    "print(time.perf_counter() - t)"
)


def import_s(src: str, speed: Speed) -> float:
    """Median time to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=60)
        times.append(float(out.stdout) * speed.factor())
    return median(times)


def sort_config(spec, algo: str, seed: int) -> bench.BenchConfig:
    return bench.BenchConfig(algo, spec.n, seed, spec.dist, spec.width, CAP)


def sort_once(cfg, tally: Tally, run=None):
    """One verified ``bench.run()`` (or ``run``) from cold caches; None if
    it failed."""
    cold_caches()
    try:
        rec = (run or bench.run)(cfg)[0]
    except Exception as exc:  # VerificationFailed or a crash in the sorter
        tally.check(False, f"{cfg.algo} sort: {exc!r}")
        return None
    tally.check(True, "")
    return rec


def counts(rec) -> tuple:
    return rec.word_ops, rec.key_compares, rec.height, rec.splits


def run_sorts(spec, seed: int, seconds: float, tally: Tally,
              speed: Speed) -> dict:
    gen = []
    for _ in range(SETUP_REPS):
        t0 = now_ns()
        bench.generate(spec.dist, spec.n, seed, spec.width)
        gen.append((now_ns() - t0) / 1e9 * speed.factor())
    deadline = now_ns() + seconds * 1e9
    us = {a: [] for a in SORT_ALGOS}
    first = {}
    while True:
        for algo in SORT_ALGOS:
            rec = sort_once(sort_config(spec, algo, seed), tally)
            f = speed.factor()
            if rec is None:
                continue
            us[algo].append(rec.wall_time_ns / spec.n / 1e3 * f)
            # counter-determinism gate: repeats of one seed charge the same
            want = counts(first.setdefault(algo, rec))
            tally.check(counts(rec) == want,
                        f"{algo} counters {counts(rec)} != {want}")
        if now_ns() >= deadline:
            break
    fusion, btree = first.get("fusion"), first.get("btree")
    return {
        "fusion_us_per_key": median(us["fusion"]) if us["fusion"] else 0.0,
        "btree_us_per_key": median(us["btree"]) if us["btree"] else 0.0,
        "fusion_word_ops_per_key": fusion.word_ops / spec.n if fusion else 0.0,
        "btree_key_compares_per_key":
            btree.key_compares / spec.n if btree else 0.0,
        "setup_work_s": median(gen),
    }


def build_trees(spec, seed: int):
    """Both trees over the workload's distinct keys, from cold caches."""
    cold_caches()
    keys = list(dict.fromkeys(
        bench.generate(spec.dist, spec.n, seed, spec.width)))
    ftree = FusionTree(width=spec.width, cap=CAP)
    btree = BTree(width=spec.width, cap=CAP)
    for k in keys:
        ftree.insert(k)
    for k in keys:
        btree.insert(k)
    return keys, ftree, btree


def tree_counts(ftree, btree) -> tuple:
    return (ftree.counters.snapshot(), ftree.height, ftree.splits,
            btree.counters.snapshot(), btree.height, btree.splits)


def run_query_mix(spec, seed: int, seconds: float, tally: Tally,
                  speed: Speed) -> dict:
    builds, setup = [], []
    for _ in range(BUILD_REPS):
        t0 = now_ns()
        builds.append(build_trees(spec, seed))
        setup.append((now_ns() - t0) / 1e9 * speed.factor())
    keys, ftree, btree = builds[-1]
    _, fcopy, bcopy = builds[0]  # left untouched for the replay gate
    for _, f, b in builds[:-1]:
        tally.check(tree_counts(f, b) == tree_counts(ftree, btree),
                    "tree build counters differ between set-up repeats")
    del builds

    rng = random.Random(f"mix:{seed}")
    present, known = list(keys), set(keys)
    model = Model(keys)
    fbase, bbase = ftree.counters.snapshot(), btree.counters.key_compares
    prefix_ops, prefix = [], None
    fus, bus = [], []
    deadline = now_ns() + seconds * 1e9
    while now_ns() < deadline or prefix is None:
        ops = mix_ops(rng, present, known, CHUNK, spec.width,
                      spec.insert_share)
        fans, bans = [], []
        fns, bns = run_chunk(ftree, btree, ops, fans, bans)
        f = speed.factor()
        fus.append(fns / CHUNK / 1e3 * f)
        bus.append(bns / CHUNK / 1e3 * f)
        model.check(ops, fans, bans, tally)
        if prefix is None:
            prefix_ops += ops
            if len(prefix_ops) == COUNT_PREFIX:
                prefix = (ftree.counters.word_ops - fbase[0],
                          ftree.counters.key_compares - fbase[1],
                          btree.counters.key_compares - bbase)

    # counter-determinism gate: the first set-up's trees replay the prefix
    cbase, cb = fcopy.counters.snapshot(), bcopy.counters.key_compares
    run_chunk(fcopy, bcopy, prefix_ops, [], [])
    replay = (fcopy.counters.word_ops - cbase[0],
              fcopy.counters.key_compares - cbase[1],
              bcopy.counters.key_compares - cb)
    tally.check(replay == prefix, f"query counters {replay} != {prefix}")
    return {
        "fusion_us_per_key": median(fus),
        "btree_us_per_key": median(bus),
        "fusion_word_ops_per_key": prefix[0] / COUNT_PREFIX,
        "btree_key_compares_per_key": prefix[2] / COUNT_PREFIX,
        "setup_work_s": median(setup),
    }


UNITS = {
    "fusion_us_per_key": "us",
    "btree_us_per_key": "us",
    "fusion_word_ops_per_key": "count",
    "btree_key_compares_per_key": "count",
    "setup_s": "s",
    "ok_share": "ratio",
}


def end_to_end(name: str, seed: int, seconds: float, src: str,
               tally: Tally) -> dict:
    """Every end-to-end metric of one workload, as {name: value}."""
    spec = SPECS[name]
    speed = Speed()
    setup = import_s(src, speed)
    if spec.insert_share:
        m = run_query_mix(spec, seed, seconds, tally, speed)
    else:
        m = run_sorts(spec, seed, seconds, tally, speed)
    m["setup_s"] = setup + m.pop("setup_work_s")
    m["ok_share"] = tally.ok_share()
    cal = speed.samples
    print(f"perfbench: calibration loop {min(cal) / 1e3:.0f}-"
          f"{max(cal) / 1e3:.0f} us (median {median(cal) / 1e3:.0f} us, "
          f"reference {CAL_REF_NS / 1e3:.0f} us) over {len(cal)} samples",
          file=sys.stderr)
    return m
