#!/usr/bin/env python3
"""Where fusion node visits end: a census of FusionNode.locate per --dist.

For each ``--dist`` value, a cold fusion sort of ``--n`` keys (width 64,
cap 7, default multiplicative sketch, both sketch caches empty), then a
seeded mix served on the built tree: ``n // 1000`` chunks (at least one)
of ``scripts/ab_pairs.py``'s 1000-op mix, 90 % reads spread over
``search``, ``rank``, ``predecessor`` and ``successor`` and 10 % fresh
inserts, as perfbench's ``query_mix`` serves them.  The script wraps
``FusionNode.locate`` and ``FusionNode._ensure`` while it runs, so the
package is untouched, and prints per dist and phase (sort, mix):

- node visits (``locate`` calls) and rebuilds (``_ensure`` calls), per
  distinct key for the sort and per operation for the mix;
- the share of visits to nodes of two or more keys by sketch form:
  single shift (multiplier 1), multiplied, exact;
- the share of visits by exit path, one of ``PATHS``, derived by
  ``exit_path`` from the keys and pass 1's trace.  ``PATHS`` and
  ``exit_path`` are the one naming of the paths: the node tests import
  them, and ``tests/test_fusion_node.py``'s ``CHARGE_GAP`` charges them.

Counts are exact and repeat for a given (n, seed); the wrapper's trace
dict and path test make the runs slower than the plain ones.

    python3 scripts/visit_census.py --n 100000 --seed 1
"""

import argparse
import random

import fusionsort
from fusionsort.bench import DISTS, generate
from fusionsort.fusion_node import FusionNode
from fusionsort.fusion_tree import fusion_sort_with_stats

from ab_pairs import CAP, MIX_CHUNK, cold, mix_ops, serve

WIDTH = 64
FORMS = ("single shift", "multiplied", "exact")
PATHS = ("t = 1", "member in pass 1",
         "neighbour exit up", "neighbour exit down",
         "neighbour exit up past the last key", "neighbour exit down to rank 0",
         "far-end exit up to the last key", "far-end exit down to rank 0",
         "pass 2 up", "pass 2 down")


def exit_path(node, x: int, answer, trace: dict) -> str:
    """Which exit of ``locate`` a visit left by, from the node's keys, the
    answer and pass 1's trace."""
    keys = node.keys
    if len(keys) == 1:
        return "t = 1"
    if answer[1]:
        return "member in pass 1"
    s = trace["selected"]
    j = keys.index(s)
    up = x > s
    k = j + 1 if up else j - 1  # s's neighbour on x's side
    if not 0 <= k < len(keys):
        return "neighbour exit up past the last key" if up else "neighbour exit down to rank 0"
    if (keys[k] ^ s) > (x ^ s):
        return "neighbour exit up" if up else "neighbour exit down"
    if ((keys[-1] if up else keys[0]) ^ s) < (x ^ s):  # the run reaches it
        return "far-end exit up to the last key" if up else "far-end exit down to rank 0"
    return "pass 2 up" if up else "pass 2 down"


def _phase() -> dict:
    return {"visits": 0, "rebuilds": 0, "forms": dict.fromkeys(FORMS, 0),
            "paths": dict.fromkeys(PATHS, 0)}


def census(dist: str, n: int, seed: int) -> dict:
    """{"sort": phase, "mix": phase} for one dist; a phase holds its
    visits, rebuilds, visits per sketch form, visits per exit path and
    its size (distinct keys for the sort, operations for the mix)."""
    data = generate(dist, n, seed, WIDTH)
    phases = {"sort": _phase(), "mix": _phase()}
    now = phases["sort"]
    locate, ensure = FusionNode.locate, FusionNode._ensure

    def counted_locate(node, x, ops, trace=None):
        trace = {} if trace is None else trace
        answer = locate(node, x, ops, trace)
        now["visits"] += 1
        now["paths"][exit_path(node, x, answer, trace)] += 1
        if len(node.keys) > 1:
            mult = node.scheme.multiplier
            now["forms"][FORMS[0 if mult == 1 else 2 if mult is None else 1]] += 1
        return answer

    def counted_ensure(node):
        now["rebuilds"] += 1
        return ensure(node)

    FusionNode.locate, FusionNode._ensure = counted_locate, counted_ensure
    try:
        cold(fusionsort)
        out, tree = fusion_sort_with_stats(data, width=WIDTH, cap=CAP)
        if out != sorted(data):
            raise SystemExit(f"{dist}: the fusion sort disagrees with sorted()")
        phases["sort"]["size"] = len(set(data))
        now = phases["mix"]
        present = tree.in_order()
        known = set(present)
        rng = random.Random(f"mix:{seed}")
        chunks = max(1, n // MIX_CHUNK)
        for _ in range(chunks):
            serve(tree, mix_ops(rng, present, known, WIDTH))
        now["size"] = chunks * MIX_CHUNK
    finally:
        FusionNode.locate, FusionNode._ensure = locate, ensure
    return phases


def _share(part: int, whole: int) -> str:
    return f"{100 * part / whole:.2f} %" if whole else "-"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=100_000, help="keys per sort")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    print(f"visit census: n={args.n} seed={args.seed} width={WIDTH} cap={CAP}; "
          f"mix: {max(1, args.n // MIX_CHUNK)} chunks of {MIX_CHUNK} ops")
    for dist in DISTS:
        for name, ph in census(dist, args.n, args.seed).items():
            per = "distinct key" if name == "sort" else "op"
            size = max(1, ph["size"])
            print(f"{dist} {name}: {ph['visits']} visits ({ph['visits'] / size:.3f} "
                  f"per {per}), {ph['rebuilds']} rebuilds ({ph['rebuilds'] / size:.3f} "
                  f"per {per})")
            multi = sum(ph["forms"].values())
            print("  sketch form, share of t >= 2 visits: " + ", ".join(
                f"{form} {_share(c, multi)}" for form, c in ph["forms"].items()))
            for path, c in ph["paths"].items():
                print(f"  {path}: {c} ({_share(c, ph['visits'])})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
