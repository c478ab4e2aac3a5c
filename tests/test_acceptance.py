"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  Several criteria insert millions of keys and
take minutes in CPython; criterion 6 runs its full stated workload and
is expected to miss its wall-clock clause on this interpreter (the
correctness clause is asserted first and separately).
"""

import itertools
import math
import random
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor

import pytest

from fusionsort.bench import demo_walkthrough, generate, mergesort
from fusionsort.btree import BTree, btree_sort_with_stats
from fusionsort.counters import OpCounters
from fusionsort.fusion_node import FusionNode
from fusionsort.fusion_tree import FusionTree, fusion_sort_with_stats
from fusionsort.sketch import EXACT, MULTIPLICATIVE
from fusionsort.trie import CompressedTrie, DuplicateKey


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}", flush=True)


def scan_rank(sorted_keys, x):
    from bisect import bisect_right
    return bisect_right(sorted_keys, x)


# fixed 16-key pool for the exhaustive sweep: the worked-example keys,
# tight clusters, and spread values that exercise every rank branch
POOL16 = (0, 1, 2, 3, 8, 12, 66, 100, 128, 130, 191, 192, 223, 224, 225, 254)

GOLDEN_KEYS = (0b11011111, 0b11100000, 0b11100001, 0b11111110)
GOLDEN_QUERY = 0b11100111


# --------------------------------------------------------------------------
# criterion 1: golden walkthrough
# --------------------------------------------------------------------------

def test_criterion_01_golden_walkthrough():
    t0 = time.perf_counter()
    node = FusionNode(list(GOLDEN_KEYS), width=16, cap=7, strategy=EXACT)
    sketches = tuple(node.sketches())
    node_word = node.node_word
    wq = node.make_query_word(GOLDEN_QUERY)
    diff = node_word - wq
    masked = diff & node._top_mask
    top = masked.bit_length() - 1
    answer = node.node_trs(GOLDEN_QUERY)
    elapsed_ms = (time.perf_counter() - t0) * 1e3

    got = (sketches, node_word, wq, diff, masked, top, answer)
    want = ((0b011, 0b100, 0b101, 0b110), 48350, 21845, 26505, 136, 7, 0b11100001)
    ok = got == want and elapsed_ms < 1.0
    report(1, ok, f"six walkthrough values exact in {elapsed_ms:.3f} ms")
    assert got == want
    assert elapsed_ms < 1.0
    demo_walkthrough()  # raises GoldenMismatch on any deviation


# --------------------------------------------------------------------------
# criterion 2: exhaustive rank equivalence at w=8
# --------------------------------------------------------------------------

def test_criterion_02_rank_exhaustive_small():
    t0 = time.perf_counter()
    checked = 0
    for subset in itertools.combinations(POOL16, 4):
        keys = sorted(subset)
        node = FusionNode(keys, width=8, cap=7)
        trie = CompressedTrie(keys, width=8)
        # incremental scan rank over the full 8-bit universe
        want = 0
        nxt = 0
        for x in range(256):
            while nxt < 4 and keys[nxt] <= x:
                nxt += 1
            want = nxt
            assert node.rank(x) == want, (keys, x)
            assert trie.rank(x) == want, (keys, x)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report(2, ok, f"{checked} exhaustive queries, 100% agreement, {elapsed:.2f} s")
    assert checked == 1820 * 256
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# criterion 3: randomized rank equivalence at w in {16, 32, 64}
# --------------------------------------------------------------------------

def _random_instances(width, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        t = rng.randint(1, 7)
        keys = sorted({rng.getrandbits(width) for _ in range(t)})
        x = rng.getrandbits(width)
        out.append((tuple(keys), x))
    return out


INSTANCES = {w: _random_instances(w, 10_000, 1000 + w) for w in (16, 32, 64)}


def test_criterion_03_rank_randomized():
    total = 0
    for width, instances in INSTANCES.items():
        for keys, x in instances:
            keys = list(keys)
            want = scan_rank(keys, x)
            trie = CompressedTrie(keys, width=width)
            assert trie.rank(x) == want, (width, keys, x)
            for strategy in (EXACT, MULTIPLICATIVE):
                node = FusionNode(keys, width=width, cap=7, strategy=strategy)
                assert node.rank(x) == want, (width, strategy, keys, x)
                total += 1
    report(3, True, f"{total} randomized node ranks agree with both oracles")
    assert total == 2 * 3 * 10_000


# --------------------------------------------------------------------------
# criterion 4: branch-count property on random tries
# --------------------------------------------------------------------------

def test_criterion_04_branch_count_property():
    rng = random.Random(4444)
    for _ in range(1000):
        t = rng.randint(1, 64)
        keys = sorted({rng.getrandbits(64) for _ in range(t)})
        trie = CompressedTrie(keys, width=64)
        assert trie.internal_node_count() == len(keys) - 1
        assert len(trie.relevant_bits()) <= len(keys) - 1
    report(4, True, "1000 random tries: branch bits <= t-1, internal nodes == t-1")


# --------------------------------------------------------------------------
# criterion 5: sketch order preservation and fallback rate
# --------------------------------------------------------------------------

def test_criterion_05_order_preservation_and_fallback():
    def check_node_orders(keys, width):
        for strategy in (EXACT, MULTIPLICATIVE):
            node = FusionNode(list(keys), width=width, cap=7, strategy=strategy)
            sks = node.sketches()
            assert sks == sorted(sks), (keys, strategy)
            assert len(set(sks)) == len(sks) or len(keys) == 1
        return node  # the multiplicative-requested one

    for subset in itertools.combinations(POOL16, 4):
        check_node_orders(sorted(subset), 8)

    fallbacks = 0
    gated = 0
    for width, instances in INSTANCES.items():
        for keys, _x in instances:
            node = check_node_orders(list(keys), width)
            if width == 64 and len(keys) > 1:
                gated += 1
                if node.scheme.fallback:
                    fallbacks += 1
    rate = fallbacks / gated
    ok = rate < 0.05
    report(5, ok, f"sketch order preserved everywhere; w=64 fallback rate "
                  f"{fallbacks}/{gated} = {100 * rate:.2f}% (< 5% required)")
    assert ok


# --------------------------------------------------------------------------
# criterion 6: sort correctness at scale (and its wall-clock clause)
# --------------------------------------------------------------------------

C6_N = 100_000
C6_DISTS = ("uniform", "sorted", "reverse", "duplicates")
C6_REPS = 100


def _c6_one(job):
    dist, rep = job
    data = generate(dist, C6_N, 10_000 + rep, 64)
    expected = sorted(data)
    f, _ = fusion_sort_with_stats(data)
    b, _ = btree_sort_with_stats(data)
    m = mergesort(data)
    return (dist, rep, f == expected, b == expected, m == expected)


def test_criterion_06_sort_correctness_at_scale():
    t0 = time.perf_counter()
    jobs = [(dist, rep) for dist in C6_DISTS for rep in range(C6_REPS)]
    failures = []
    # independent inputs sort in parallel; each worker cross-checks all
    # three algorithms against the reference sort on the same input
    with ProcessPoolExecutor(max_workers=2) as pool:
        for dist, rep, f_ok, b_ok, m_ok in pool.map(_c6_one, jobs, chunksize=4):
            if not (f_ok and b_ok and m_ok):
                failures.append((dist, rep, f_ok, b_ok, m_ok))
    elapsed = time.perf_counter() - t0
    correct = not failures
    report(6, correct and elapsed < 60.0,
           f"{len(jobs)} inputs x 3 algorithms at n={C6_N}: "
           f"{'all exact matches' if correct else f'{len(failures)} mismatches'}; "
           f"runtime {elapsed:.1f} s (< 60 s required)")
    assert correct, failures[:5]
    assert elapsed < 60.0, (
        f"correctness holds but the workload took {elapsed:.1f} s; the 60 s "
        f"clause is not attainable for 1.2e8 tree insertions in CPython")


# --------------------------------------------------------------------------
# criteria 7 and 10: height bound and split amortization at n = 1e6
# --------------------------------------------------------------------------

N_MILLION = 1_000_000


TreeShape = namedtuple("TreeShape", "height splits")


def _million_tree(cap):
    rng = random.Random(77)
    tree = FusionTree(width=64, cap=cap)
    for _ in range(N_MILLION):
        try:
            tree.insert(rng.getrandbits(64))
        except DuplicateKey:
            pass
    return TreeShape(tree.height, tree.splits)


@pytest.fixture(scope="module")
def million_trees():
    # the three capacities build in parallel; only the shapes come back
    caps = (3, 5, 7)
    with ProcessPoolExecutor(max_workers=2) as pool:
        return dict(zip(caps, pool.map(_million_tree, caps)))


def test_criterion_07_height_bound(million_trees):
    bounds = {}
    for cap, tree in million_trees.items():
        m = (cap + 1) // 2
        bound = math.ceil(math.log((N_MILLION + 1) / 2, m)) + 1
        bounds[cap] = (tree.height, bound)
        assert tree.height <= bound, (cap, tree.height, bound)
    assert bounds[7][1] == 11  # ceil(log4(500000.5)) + 1
    detail = ", ".join(f"cap {c}: height {h} <= {b}" for c, (h, b) in bounds.items())
    report(7, True, detail)


def test_criterion_10_split_amortization(million_trees):
    lines = []
    for cap, tree in million_trees.items():
        min_fill = (cap + 1) // 2 - 1
        bound = N_MILLION / min_fill + tree.height
        assert tree.splits <= bound, (cap, tree.splits, bound)
        lines.append(f"cap {cap}: {tree.splits} splits <= {bound:.0f}")
    report(10, True, "; ".join(lines))


# --------------------------------------------------------------------------
# criterion 8: constant word ops per node visit vs linear scan
# --------------------------------------------------------------------------

C8_POOL = [5, 9, 23, 77, 130, 164, 201, 250]  # bit spans stay multiplicative


def _rank_path_label(node, x):
    """Re-derive the code path of rank() from first principles."""
    keys = node.keys
    t = len(keys)
    sks = node.sketches()
    skx = node.sketch_of(x)
    pc = sum(1 for s in sks if s < skx)
    surv1_zero = pc == t
    if pc < t and keys[pc] == x:
        return ("member", surv1_zero)
    interior = 0 < pc < t
    if pc == t:
        s = keys[t - 1]
    else:
        s = keys[pc]
        if interior and (x ^ keys[pc - 1]) < (x ^ s):
            s = keys[pc - 1]
    b = (x ^ s).bit_length() - 1
    if (x >> b) & 1:
        x2 = x | ((1 << (b + 1)) - 1)
        q2 = node.sketch_of(x2)
        sat = q2 == (1 << node.block_size - 1) - 1
        surv2_zero = (not sat) and sum(1 for v in sks if v < q2 + 1) == t
        return ("a", surv1_zero, interior, sat, surv2_zero)
    x2 = x & ~((1 << (b + 1)) - 1)
    q2 = node.sketch_of(x2)
    surv2_zero = sum(1 for v in sks if v < q2) == t
    return ("b", surv1_zero, interior, surv2_zero)


def test_criterion_08_constant_node_ops():
    per_path: dict = {}
    pc_costs = set()
    for t in range(2, 8):
        keys = sorted(C8_POOL[:t])
        node = FusionNode(keys, width=64, cap=7, strategy=MULTIPLICATIVE)
        assert node.scheme.strategy == MULTIPLICATIVE
        for x in range(256):
            ops = OpCounters()
            node.rank(x, ops)
            assert ops.word_ops <= 40, (t, x, ops.word_ops)
            label = _rank_path_label(node, x)
            per_path.setdefault(label, {}).setdefault(t, set()).add(ops.word_ops)
            ops2 = OpCounters()
            node.parallel_compare(x, ops2)
            pc_costs.add(ops2.word_ops)

    # fixed code path => identical charge, no matter how many keys
    for label, by_t in per_path.items():
        costs = set().union(*by_t.values())
        assert len(costs) == 1, (label, by_t)
    assert len(pc_costs) <= 2  # survivors present vs. none
    max_cost = max(max(c) for by_t in per_path.values() for c in by_t.values())

    # baseline: in-node comparisons grow linearly with the key count
    xs, ys = [], []
    for t in range(2, 8):
        bt = BTree(width=64, cap=7)
        for k in sorted(C8_POOL[:t]):
            bt.insert(k)
        before = bt.counters.key_compares
        bt.search(255)  # above all keys: full scan
        xs.append(t)
        ys.append(bt.counters.key_compares - before)
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    slope = sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / sum(
        (a - mx) ** 2 for a in xs)
    ok = max_cost <= 40 and slope >= 0.9
    report(8, ok, f"rank <= {max_cost} word ops, path costs t-invariant; "
                  f"baseline scan slope {slope:.2f} compares/key")
    assert slope >= 0.9


# --------------------------------------------------------------------------
# criterion 9: per-insert work tracks height (word ops) / B log_B n (compares)
# --------------------------------------------------------------------------

def test_criterion_09_growth_shape():
    ns = (1_000, 10_000, 100_000, 1_000_000)
    cap = 7
    degree = cap + 1
    fusion_ratios = []
    btree_ratios = []
    for n in ns:
        data = generate("uniform", n, 90_000 + n, 64)
        out, ftree = fusion_sort_with_stats(data, cap=cap)
        assert out == sorted(data)
        fusion_ratios.append(ftree.counters.word_ops / n / ftree.height)
        out, btree = btree_sort_with_stats(data, cap=cap)
        assert out == sorted(data)
        btree_ratios.append(
            btree.counters.key_compares / n / (degree * math.log(n, degree)))
    c_f = sum(fusion_ratios) / len(fusion_ratios)
    c_b = sum(btree_ratios) / len(btree_ratios)
    f_ok = all(abs(r - c_f) <= 0.2 * c_f for r in fusion_ratios)
    b_ok = all(abs(r - c_b) <= 0.2 * c_b for r in btree_ratios)
    report(9, f_ok and b_ok,
           f"fusion word_ops/insert/height = {[round(r, 2) for r in fusion_ratios]} "
           f"(fit {c_f:.2f}); btree compares/insert/(B log_B n) = "
           f"{[round(r, 3) for r in btree_ratios]} (fit {c_b:.3f}); both within 20%")
    assert f_ok, fusion_ratios
    assert b_ok, btree_ratios
