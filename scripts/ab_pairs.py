#!/usr/bin/env python3
"""In-process A/B of two source trees: same answers and charges, then timed pairs.

Loads the ``fusionsort`` package of each ``src/`` directory under its own
module name, so both versions run in one process on one input.  First it
checks, for every ``--dist`` value over four (width, cap) shapes at a
fixed seed, that both sides' ``bench.generate`` draw the same keys, and
that both sorters (the fusion tree under each sketch strategy, and the
B-tree) give the same output, word ops, key compares, height and splits
on the base side's keys.  Each of those trees then answers a seeded probe
set (both ends of the word, sampled keys and their neighbours, random
words) with ``search``, ``rank``, ``predecessor`` and ``successor``, and
both sides must give the same answer and charge the same word ops and
key compares probe for probe.  Any mismatch names its row (``MISMATCH
read …`` for a read) and exits 1.  Then
it times ``--pairs`` alternating pairs of one sort (the B-tree, or the
fusion tree with its default multiplicative sketch, at cap 7 as
perfbench runs them) from cold sketch caches and prints each side's
median and quartiles in µs per key, and how many pairs the change won.
Last it times ``--pairs`` alternating pairs of a fresh-interpreter
``import fusionsort.bench`` from each ``src/`` and prints the same
summary in ms.

    python3 scripts/ab_pairs.py BASE/src src --algo btree --n 100000 --pairs 10
"""

import argparse
import gc
import importlib.util
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

CAP = 7  # node capacity of the timed sorts, as in every perfbench workload
SHAPES = ((64, CAP), (8, CAP), (32, 5), (16, 4))  # (width, cap) of the check rows
CHECK_N = 2000  # keys per check row, fewer where the width holds fewer
READS = ("search", "rank", "predecessor", "successor")
READ_PROBES = 200  # probes per check row, about
IMPORT_PROBE = ("import time; t = time.perf_counter(); import fusionsort.bench; "
                "print(time.perf_counter() - t)")


def load(src: str, name: str):
    """Import ``src``/fusionsort, and its bench module, as the top-level
    package ``name``."""
    pkg = Path(src).resolve() / "fusionsort"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    importlib.import_module(f"{name}.bench")
    return mod


def sort(pkg, algo: str, data, width: int, cap: int = CAP,
         strategy: str = "multiplicative"):
    """(output, (word_ops, key_compares, height, splits), tree) of one
    sort; ``strategy`` is the fusion tree's sketch strategy."""
    if algo == "btree":
        out, tree = pkg.btree_sort_with_stats(data, width=width, cap=cap)
    else:
        out, tree = pkg.fusion_sort_with_stats(
            data, width=width, cap=cap, strategy=strategy)
    c = tree.counters
    return out, (c.word_ops, c.key_compares, tree.height, tree.splits), tree


def probes(data, width: int, seed: int) -> list:
    """Seeded read probes: 0 and the all-ones word, sampled keys with
    their neighbours, and random words."""
    rng = random.Random(f"{seed}:{width}:{len(data)}")
    top = (1 << width) - 1
    xs = [0, top]
    for k in rng.sample(data, min(len(data), READ_PROBES // 4)):
        xs += (max(0, k - 1), k, min(top, k + 1))
    xs += [rng.getrandbits(width) for _ in range(READ_PROBES // 4)]
    return xs


def reads(tree, xs) -> list:
    """(op, probe, answer, word ops, key compares) of every read."""
    c = tree.counters
    out = []
    for op in READS:
        read = getattr(tree, op)
        for x in xs:
            w, k = c.word_ops, c.key_compares
            out.append((op, x, read(x), c.word_ops - w, c.key_compares - k))
    return out


def cold(pkg) -> None:
    """Empty the package's sketch caches, as a fresh process has them."""
    pkg.sketch._scheme_cached.cache_clear()
    pkg.sketch._find_multiplier_cached.cache_clear()


def check(base, change, seed: int) -> int:
    algos = (("fusion", "multiplicative"), ("fusion", "exact"), ("btree", ""))
    rows = bad = 0
    for dist in base.bench.DISTS:
        for width, cap in SHAPES:
            n = min(CHECK_N, 1 << width)
            data = base.bench.generate(dist, n, seed, width)
            other = change.bench.generate(dist, n, seed, width)
            if other != data:
                bad += 1
                at = next((i for i, (a, b) in enumerate(zip(data, other))
                           if a != b), min(len(data), len(other)))
                print(f"MISMATCH generate dist={dist} width={width} n={n}: "
                      f"base {len(data)} keys, change {len(other)}, "
                      f"first difference at index {at}")
            xs = probes(data, width, seed)
            for algo, strategy in algos:
                *a, tree_a = sort(base, algo, data, width, cap, strategy)
                *b, tree_b = sort(change, algo, data, width, cap, strategy)
                rows += 1
                name = f"{algo}-{strategy}" if strategy else algo
                if a != b:
                    bad += 1
                    print(f"MISMATCH {name} dist={dist} width={width} cap={cap}: "
                          f"base {a[1]}, change {b[1]}, outputs "
                          f"{'equal' if a[0] == b[0] else 'differ'}")
                ra, rb = reads(tree_a, xs), reads(tree_b, xs)
                if ra != rb:
                    bad += 1
                    diff = [(p, q) for p, q in zip(ra, rb) if p != q]
                    (op, x, *got_a), (_, _, *got_b) = diff[0]
                    print(f"MISMATCH read {name} dist={dist} width={width} cap={cap}: "
                          f"{len(diff)} of {len(ra)} reads differ, first {op}({x}): "
                          f"base (answer, word_ops, key_compares) {tuple(got_a)}, "
                          f"change {tuple(got_b)}")
    print(f"checked {rows} rows (n <= {CHECK_N}, seed {seed}): "
          f"{'all identical' if not bad else f'{bad} mismatched'}")
    return bad


def quartiles(xs) -> str:
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return f"{med:.3f} ({q1:.3f}-{q3:.3f})"


def import_ms(src: str) -> float:
    """Time of ``import fusionsort.bench`` in a fresh interpreter over ``src``."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout) * 1e3


def summary(what: str, unit: str, xs: dict, pairs: int) -> None:
    """Each side's median (quartiles), the change/base ratio and its wins."""
    wins = sum(c < b for b, c in zip(xs["base"], xs["change"]))
    ratio = statistics.median(xs["change"]) / statistics.median(xs["base"])
    print(f"{what}, {unit} median (quartiles):")
    print(f"  base   {quartiles(xs['base'])}")
    print(f"  change {quartiles(xs['change'])}")
    print(f"  ratio {ratio:.3f}, change won {wins} of {pairs} pairs")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="the src/ directory of the base version")
    ap.add_argument("change", help="the src/ directory of the changed version")
    ap.add_argument("--algo", default="btree", choices=("btree", "fusion"))
    ap.add_argument("--n", type=int, default=100_000, help="keys per timed sort")
    ap.add_argument("--dist", default="uniform")
    ap.add_argument("--width", type=int, default=64)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    base, change = load(args.base, "ab_base"), load(args.change, "ab_change")
    if check(base, change, args.seed):
        return 1

    data = base.bench.generate(args.dist, args.n, args.seed, args.width)
    expected = sorted(data)
    us = {"base": [], "change": []}
    sides = (("base", base), ("change", change))
    for p in range(args.pairs):
        for side, pkg in (sides if p % 2 == 0 else sides[::-1]):
            cold(pkg)
            gc.collect()
            t0 = time.perf_counter_ns()
            out = sort(pkg, args.algo, data, args.width)[0]
            dt = time.perf_counter_ns() - t0
            if out != expected:
                print(f"{side} output disagrees with the reference sort")
                return 1
            us[side].append(dt / 1e3 / max(1, args.n))
        print(f"pair {p + 1}: base {us['base'][-1]:.3f}, "
              f"change {us['change'][-1]:.3f} us/key")
    summary(f"{args.algo} {args.dist} n={args.n} width={args.width} cap={CAP}",
            "us/key", us, args.pairs)

    ms = {"base": [], "change": []}
    srcs = (("base", args.base), ("change", args.change))
    for p in range(args.pairs):
        for side, src in (srcs if p % 2 == 0 else srcs[::-1]):
            ms[side].append(import_ms(src))
    summary("fresh-interpreter import fusionsort.bench", "ms", ms, args.pairs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
