#!/usr/bin/env python3
"""In-process A/B of two source trees: same answers and charges, then timed pairs.

Loads the ``fusionsort`` package of each ``src/`` directory under its own
module name, so both versions run in one process on one input.  First it
checks, for every ``--dist`` value over four (width, cap) shapes at a
fixed seed, that both sides' ``bench.generate`` draw the same keys, and
that both sides' sorters (the fusion tree under each sketch strategy,
and the B-tree) give the same output, word ops, key compares, height and
splits on the base side's keys, and ``bench.mergesort`` the same output
and key compares.  Each of those trees then answers a seeded probe
set (both ends of the word, sampled keys and their neighbours, random
words) with ``search``, ``rank``, ``predecessor`` and ``successor``, and
both sides must give the same answer and charge the same word ops and
key compares probe for probe.  Both sides' uncached multiplier search
(``sketch._find_multiplier_cached.__wrapped__``) must also return the
same constant, or both none, on a fixed case set: every bit set of an
8-bit word at every window cap 1..r*r+1, de-duplicated by gaps, and
seeded node-shaped 64-bit sets at the cap their node asks for.  Any
mismatch names its row (``MISMATCH read …`` for a read, ``MISMATCH
search …`` for a search case); a read row says how many answers differ
and, per counter, how many reads the change charges lower, equal and
higher, and a closing tally says the same over every sort row and every
read.  If anything but word ops differs, the script stops there and
exits 1.  A change that moves word ops alone (a deliberate charge
change) goes on to the timing and exits 1 at the end.  Then it times
``--pairs`` alternating pairs of one sort (the B-tree, or the fusion
tree with its default multiplicative sketch, at cap 7 as perfbench runs
them) from cold caches (both sketch caches empty) and prints each
side's median and quartiles in µs per key, and how many pairs the
change won.
``--algo mix`` times the read path instead: each side builds a fusion
tree over the same ``--n`` keys, and every pair serves one seeded chunk
of 1000 operations on both warm trees (90 % reads spread over
``search``, ``rank``, ``predecessor`` and ``successor``, half of them
on stored keys, and 10 % fresh inserts); both sides must give the same
answers and key compares after every chunk (word ops may differ only
after the check allowed it, and are tallied per chunk), and the summary
is in µs per operation.  Last it times ``--pairs`` alternating pairs of a
fresh-interpreter ``import fusionsort.bench`` from each ``src/`` and
prints the same summary in ms.

``--opcodes [N]`` then counts the interpreter's work exactly: the
per-opcode trace events (``sys.settrace`` with ``f_trace_opcodes``) of
each side over fixed workloads, a cold fusion sort of N uniform keys
and one of N clustered keys, a B-tree sort and ``bench.mergesort`` of
2N uniform keys, and two seeded mix chunks on a warm fusion tree of N
keys (N is 5000 when not given).  Every workload starts from the same
cold caches as a timed sort, after one untraced run of the whole set,
so a count repeats exactly.  The count does not see C-level work
(``sorted``, ``Counter``, big-int multiplies, cache lookups, allocation,
the collector): it shows the direction of a change in interpreted work,
not its size, and is no speed claim.

    python3 scripts/ab_pairs.py BASE/src src --algo btree --n 100000 --pairs 10
    python3 scripts/ab_pairs.py BASE/src src --algo mix --n 100000 --pairs 300
    python3 scripts/ab_pairs.py BASE/src src --n 1000 --pairs 1 --opcodes
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
SEARCH_SETS = 2000  # seeded node-shaped 64-bit bit sets in the search check
MIX_CHUNK = 1000  # operations per timed chunk of --algo mix
MIX_INSERTS = 0.1  # share of fresh inserts in the mix
OPCODE_N = 5000  # keys of each cold fusion sort that --opcodes counts
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
    sort; ``strategy`` is the fusion tree's sketch strategy.  ``mergesort``
    has no tree: (output, (word_ops, key_compares), None)."""
    if algo == "mergesort":
        c = pkg.counters.OpCounters()
        return pkg.bench.mergesort(data, c), (c.word_ops, c.key_compares), None
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


def mix_ops(rng, present: list, known: set, width: int) -> list:
    """One seeded chunk of (op, key) pairs: fresh inserts at MIX_INSERTS,
    the rest reads spread evenly over READS, half of them on a stored key.
    This is perfbench's query_mix op mix, restated so that the script
    loads no third ``fusionsort`` (perfbench's modules import one)."""
    ops = []
    for _ in range(MIX_CHUNK):
        if rng.random() < MIX_INSERTS:
            k = rng.getrandbits(width)
            while k in known:
                k = rng.getrandbits(width)
            known.add(k)
            present.append(k)
            ops.append(("insert", k))
        else:
            op = READS[rng.randrange(len(READS))]
            if rng.random() < 0.5:
                k = present[rng.randrange(len(present))]  # a stored key
            else:
                k = rng.getrandbits(width)
            ops.append((op, k))
    return ops


def serve(tree, ops) -> list:
    """The answers of ``ops``, served closed-loop on ``tree`` in order."""
    call = {op: getattr(tree, op) for op in READS + ("insert",)}
    return [call[op](k) for op, k in ops]


def cold(pkg) -> None:
    """Empty the package's two sketch caches, as a fresh process has them."""
    pkg.sketch._scheme_cached.cache_clear()
    pkg.sketch._find_multiplier_cached.cache_clear()


def search_cases(seed: int) -> list:
    """(gaps, lcap) cases of the multiplier search: every 8-bit set that
    holds bit 0 (one per gap pattern) at every cap 1..r*r+1, then
    SEARCH_SETS seeded node-shaped sets, t - 1 distinct bits of a 64-bit
    word for t in 2..CAP keys, at the cap find_multiplier gives a node
    of t keys, min(r*r, 64 // t - 1)."""
    cases = []
    for mask in range(1, 1 << 8, 2):
        gaps = tuple(b for b in range(8) if mask >> b & 1)
        cases += [(gaps, lcap) for lcap in range(1, len(gaps) ** 2 + 2)]
    rng = random.Random(f"search:{seed}")
    for _ in range(SEARCH_SETS):
        t = rng.randint(2, CAP)
        bits = sorted(rng.sample(range(64), t - 1))
        gaps = tuple(b - bits[0] for b in bits)
        cases.append((gaps, min((t - 1) ** 2, 64 // t - 1)))
    return cases


def check_search(base, change, seed: int) -> tuple[int, int]:
    """(cases, mismatches) of both sides' uncached multiplier search."""
    cases = search_cases(seed)
    find_a = base.sketch._find_multiplier_cached.__wrapped__
    find_b = change.sketch._find_multiplier_cached.__wrapped__
    bad = 0
    for gaps, lcap in cases:
        a, b = find_a(gaps, lcap), find_b(gaps, lcap)
        if a != b:
            bad += 1
            print(f"MISMATCH search gaps={gaps} lcap={lcap}: base {a}, change {b}")
    return len(cases), bad


def tally(pairs) -> str:
    """How many of the (base, change) pairs the change has lower, equal
    and higher."""
    pairs = list(pairs)
    lower = sum(b < a for a, b in pairs)
    higher = sum(b > a for a, b in pairs)
    return f"{lower} lower, {len(pairs) - lower - higher} equal, {higher} higher"


def tallies(names, pairs) -> str:
    """``tally`` per counter: pairs holds (base, change) counter tuples,
    and counter i is tallied over the tuples that have one."""
    return "; ".join(f"{name} {tally((a[i], b[i]) for a, b in pairs if len(a) > i)}"
                     for i, name in enumerate(names))


def check(base, change, seed: int) -> tuple[int, int]:
    """(mismatches, mismatches other than word ops alone): every sort row,
    read row and search case of both sides compared."""
    algos = (("fusion", "multiplicative"), ("fusion", "exact"), ("btree", ""),
             ("mergesort", ""))
    rows = bad = other = 0
    counts, charges = [], []  # (base, change) of every sort row and every read
    for dist in base.bench.DISTS:
        for width, cap in SHAPES:
            n = min(CHECK_N, 1 << width)
            data = base.bench.generate(dist, n, seed, width)
            drawn = change.bench.generate(dist, n, seed, width)
            if drawn != data:
                bad += 1
                other += 1
                at = next((i for i, (a, b) in enumerate(zip(data, drawn))
                           if a != b), min(len(data), len(drawn)))
                print(f"MISMATCH generate dist={dist} width={width} n={n}: "
                      f"base {len(data)} keys, change {len(drawn)}, "
                      f"first difference at index {at}")
            xs = probes(data, width, seed)
            for algo, strategy in algos:
                *a, tree_a = sort(base, algo, data, width, cap, strategy)
                *b, tree_b = sort(change, algo, data, width, cap, strategy)
                rows += 1
                name = f"{algo}-{strategy}" if strategy else algo
                where = f"{name} dist={dist} width={width} cap={cap}"
                counts.append((a[1], b[1]))
                if a != b:
                    bad += 1
                    other += a[0] != b[0] or a[1][1:] != b[1][1:]
                    print(f"MISMATCH {where}: base {a[1]}, change {b[1]}, outputs "
                          f"{'equal' if a[0] == b[0] else 'differ'}")
                if tree_a is None:  # mergesort: no tree to read
                    continue
                ra, rb = reads(tree_a, xs), reads(tree_b, xs)
                pairs = [(p[2:], q[2:]) for p, q in zip(ra, rb)]
                charges += pairs
                if ra != rb:
                    bad += 1
                    answers = sum(p[0] != q[0] for p, q in pairs)
                    other += answers > 0 or any(p[2] != q[2] for p, q in pairs)
                    print(f"MISMATCH read {where}: {sum(p != q for p, q in pairs)} "
                          f"of {len(ra)} reads differ; answers {answers} differ; "
                          + tallies(("word_ops", "key_compares"),
                                    [(p[1:], q[1:]) for p, q in pairs]))
    searches, wrong = check_search(base, change, seed)
    bad += wrong
    other += wrong
    print(f"checked {rows} rows and {searches} search cases (n <= {CHECK_N}, "
          f"seed {seed}): {'all identical' if not bad else f'{bad} mismatched'}")
    if bad:
        print("sort rows, change against base: "
              + tallies(("word_ops", "key_compares", "height", "splits"), counts))
        print(f"reads, change against base: answers "
              f"{sum(p[0] != q[0] for p, q in charges)} differ; "
              + tallies(("word_ops", "key_compares"), [(p[1:], q[1:]) for p, q in charges]))
        print("only word_ops differ: timing anyway, exit status 1" if not other
              else "more than word_ops differ: stopping before timing")
    return bad, other


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


def sort_pairs(base, change, args):
    """Alternating timed sorts from cold caches: (label, unit,
    {side: µs per key}, False), or None if a side's output is wrong."""
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
                return None
            us[side].append(dt / 1e3 / max(1, args.n))
        print(f"pair {p + 1}: base {us['base'][-1]:.3f}, "
              f"change {us['change'][-1]:.3f} us/key")
    return (f"{args.algo} {args.dist} n={args.n} width={args.width} cap={CAP}",
            "us/key", us, False)


def mix_pairs(base, change, args):
    """Alternating timed chunks of one read/insert mix on warm fusion
    trees: (label, unit, {side: µs per op}, whether any chunk's word ops
    differed), or None if the sides' answers or key compares differ
    after a chunk."""
    data = base.bench.generate(args.dist, args.n, args.seed, args.width)
    trees = {}
    for side, pkg in (("base", base), ("change", change)):
        cold(pkg)
        trees[side] = sort(pkg, "fusion", data, args.width)[2]
    gc.collect()
    gc.freeze()  # the trees are long-lived: keep them out of collections
    present = trees["base"].in_order()
    known = set(present)
    rng = random.Random(f"mix:{args.seed}")
    us = {"base": [], "change": []}
    word_ops = []  # (base, change) word ops of every chunk
    for p in range(args.pairs):
        ops = mix_ops(rng, present, known, args.width)
        got = {}
        for side in (("base", "change") if p % 2 == 0 else ("change", "base")):
            tree = trees[side]
            before = tree.counters.word_ops
            gc.collect()
            t0 = time.perf_counter_ns()
            answers = serve(tree, ops)
            dt = time.perf_counter_ns() - t0
            got[side] = answers, tree.counters.snapshot(), tree.counters.word_ops - before
            us[side].append(dt / 1e3 / len(ops))
        (a, charged_a, w_a), (b, charged_b, w_b) = got["base"], got["change"]
        word_ops.append((w_a, w_b))
        if (a, charged_a[1]) != (b, charged_b[1]):
            print(f"MISMATCH mix chunk {p + 1}: answers "
                  f"{'equal' if a == b else 'differ'}, charges (word_ops, "
                  f"key_compares) base {charged_a}, change {charged_b}")
            return None
        print(f"pair {p + 1}: base {us['base'][-1]:.3f}, "
              f"change {us['change'][-1]:.3f} us/op")
    moved = any(a != b for a, b in word_ops)
    if moved:
        print(f"mix chunks, change against base: word_ops {tally(word_ops)}")
    return (f"mix {args.dist} n={args.n} width={args.width} cap={CAP}, "
            f"{MIX_CHUNK}-op chunks", "us/op", us, moved)


class OpcodeCount:
    """Trace function counting the opcode events of every traced frame."""

    def __init__(self):
        self.n = 0

    def __call__(self, frame, event, arg):
        if event == "opcode":
            self.n += 1
        elif event == "call":
            frame.f_trace_opcodes = True
        return self


def traced(fn) -> int:
    """Opcodes the interpreter executes for fn() and all it calls."""
    count = OpcodeCount()
    sys.settrace(count)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count.n


def untraced(fn) -> int:
    fn()
    return 0


def opcode_work(base, n: int, seed: int) -> list:
    """The workloads of --opcodes, on keys the base side draws: (label,
    algo, keys, mix chunks or None)."""
    uniform = base.bench.generate("uniform", 2 * n, seed, 64)
    clustered = base.bench.generate("clustered", n, seed, 64)
    present = sorted(set(uniform[:n]))
    rng = random.Random(f"mix:{seed}")
    chunks = [mix_ops(rng, present, set(present), 64) for _ in range(2)]
    return [(f"fusion uniform n={n}", "fusion", uniform[:n], None),
            (f"fusion clustered n={n}", "fusion", clustered, None),
            (f"btree uniform n={2 * n}", "btree", uniform, None),
            (f"mergesort uniform n={2 * n}", "mergesort", uniform, None),
            (f"mix 2 x {MIX_CHUNK} ops, warm fusion tree n={n}", "mix",
             uniform[:n], chunks)]


def run_work(pkg, algo: str, keys, chunks, count) -> int:
    """``count`` (traced or untraced) of one workload on pkg, from cold
    caches; a mix builds its tree untraced."""
    cold(pkg)
    gc.collect()
    if chunks is None:
        return count(lambda: sort(pkg, algo, keys, 64))
    tree = sort(pkg, "fusion", keys, 64)[2]
    return sum(count(lambda: serve(tree, ops)) for ops in chunks)


def opcode_counts(base, change, n: int, seed: int) -> None:
    """Print each side's opcode count per workload, and change/base."""
    work = opcode_work(base, n, seed)
    counts = {}
    for side, pkg in (("base", base), ("change", change)):
        for _, algo, keys, chunks in work:  # warm-up: imports, first calls
            run_work(pkg, algo, keys, chunks, untraced)
        counts[side] = [run_work(pkg, algo, keys, chunks, traced)
                        for _, algo, keys, chunks in work]
    print("interpreter opcodes (sys.settrace opcode events; C-level work "
          "not seen), base -> change:")
    for (label, *_), a, b in zip(work, counts["base"], counts["change"]):
        print(f"  {label}: {a} -> {b} ({b / a:.4f})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="the src/ directory of the base version")
    ap.add_argument("change", help="the src/ directory of the changed version")
    ap.add_argument("--algo", default="btree", choices=("btree", "fusion", "mix"),
                    help="the sort to time, or mix: reads and inserts on warm trees")
    ap.add_argument("--n", type=int, default=100_000,
                    help="keys per timed sort, or per tree for mix")
    ap.add_argument("--dist", default="uniform")
    ap.add_argument("--width", type=int, default=64)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--opcodes", type=int, nargs="?", const=OPCODE_N,
                    metavar="N", help="after the timed pairs, count each "
                    "side's interpreted opcodes over fixed workloads of N "
                    f"and 2N keys (N defaults to {OPCODE_N})")
    args = ap.parse_args()

    base, change = load(args.base, "ab_base"), load(args.change, "ab_change")
    bad, other = check(base, change, args.seed)
    if other:
        return 1

    timed = (mix_pairs if args.algo == "mix" else sort_pairs)(base, change, args)
    if timed is None:
        return 1
    *timed, moved = timed
    summary(*timed, args.pairs)

    ms = {"base": [], "change": []}
    srcs = (("base", args.base), ("change", args.change))
    for p in range(args.pairs):
        for side, src in (srcs if p % 2 == 0 else srcs[::-1]):
            ms[side].append(import_ms(src))
    summary("fresh-interpreter import fusionsort.bench", "ms", ms, args.pairs)
    if args.opcodes:
        opcode_counts(base, change, args.opcodes, args.seed)
    return 1 if bad or moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
