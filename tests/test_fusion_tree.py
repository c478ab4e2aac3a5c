import math
import random
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionsort.btree import BTree
from fusionsort.fusion_node import NodeError
from fusionsort.fusion_tree import FusionTree, fusion_sort, fusion_sort_with_stats
from fusionsort.trie import DuplicateKey
from fusionsort.wordops import WordError


def _corrupt_keys(t):
    leaf = t.root.children[1]
    leaf.keys[0], leaf.keys[1] = leaf.keys[1], leaf.keys[0]
    return leaf.keys, 2, "not strictly increasing between"


def _corrupt_separator(t):
    leaf = t.root.children[0]
    leaf.keys[-1] = t.root.keys[0] + 1
    return leaf.keys, 2, f"not strictly increasing between -1 and {t.root.keys[0]}"


def _corrupt_fill(t):
    leaf = t.root.children[0]
    leaf.keys.pop()
    return leaf.keys, 2, "2 keys"


def _corrupt_children(t):
    t.root.children.pop()
    return t.root.keys, 1, f"{len(t.root.keys)} children"


def _corrupt_height(t):
    t.height += 1
    return t.root.children[0].keys, 2, "leaves must sit at depth 3"


def _corrupt_subtree_size(t):
    t.root.subtree_size += 1
    return t.root.keys, 1, "subtree_size"


@pytest.mark.parametrize("tree_cls", [FusionTree, BTree])
@pytest.mark.parametrize("corrupt", [_corrupt_keys, _corrupt_separator,
                                     _corrupt_fill, _corrupt_children,
                                     _corrupt_height, _corrupt_subtree_size])
def test_check_names_offending_node(tree_cls, corrupt):
    t = tree_cls(width=16, cap=7)
    for k in range(0, 300, 10):
        t.insert(k)
    t.check()
    assert t.height == 2
    keys, depth, what = corrupt(t)
    with pytest.raises(AssertionError) as exc:
        t.check()
    msg = str(exc.value)
    assert f"node {keys} at depth {depth}" in msg and what in msg, msg


@pytest.mark.parametrize("tree_cls", [FusionTree, BTree])
def test_check_size_and_empty_tree(tree_cls):
    t = tree_cls(width=16)
    t.check()
    t.size = 1
    with pytest.raises(AssertionError, match="size 1, height 0, tree holds 0"):
        t.check()
    t = tree_cls(width=16)
    t.insert(4)
    t.size = 2
    with pytest.raises(AssertionError, match="size 2, height 1, tree holds 1"):
        t.check()


def test_insert_single():
    t = FusionTree(width=16)
    t.insert(5)
    assert t.size == 1 and t.height == 1
    assert t.in_order() == [5]
    t.check()


def test_insert_cap_plus_one_splits_root():
    t = FusionTree(width=16, cap=7)
    for k in range(1, 9):
        t.insert(k * 10)
    assert t.height == 2
    assert len(t.root.keys) == 1
    assert t.root.keys[0] == 40  # median of the first seven promoted
    assert [len(c.keys) for c in t.root.children] == [3, 4]
    assert t.in_order() == [k * 10 for k in range(1, 9)]
    t.check()


def test_insert_duplicate_raises():
    t = FusionTree(width=16)
    t.insert(3)
    with pytest.raises(DuplicateKey):
        t.insert(3)
    for k in (1, 2, 4, 5, 6, 7, 9):
        t.insert(k)
    for k in (1, 3, 9):  # duplicates at any depth
        with pytest.raises(DuplicateKey):
            t.insert(k)
    t.check()


@pytest.mark.parametrize("tree_cls", [FusionTree, BTree])
def test_duplicate_insert_keeps_sizes(tree_cls):
    # every stored key re-inserted, including medians of full nodes that
    # the descent splits before it finds the duplicate one level up
    rng = random.Random(59)
    t = tree_cls(width=16, cap=3)
    keys = rng.sample(range(1 << 16), 300)
    for k in keys:
        t.insert(k)
    splits = t.splits
    for k in keys:
        with pytest.raises(DuplicateKey):
            t.insert(k)
        t.check()
        assert len(t) == len(keys)
    assert t.splits > splits  # some duplicate met a full node first
    assert t.in_order() == sorted(keys)


def test_insert_random_invariants():
    rng = random.Random(61)
    for cap in (3, 4, 5, 7):
        t = FusionTree(width=32, cap=cap)
        keys = rng.sample(range(1 << 32), 2000)
        for k in keys:
            t.insert(k)
        assert t.in_order() == sorted(keys)
        t.check()


def test_search():
    rng = random.Random(67)
    t = FusionTree(width=64)
    keys = [rng.getrandbits(64) for _ in range(1500)]
    keys = list(dict.fromkeys(keys))
    for k in keys:
        t.insert(k)
    for k in rng.sample(keys, 300):
        assert t.search(k)
        assert k in t
    for _ in range(300):
        x = rng.getrandbits(64)
        assert t.search(x) == (x in set(keys))
    assert not FusionTree().search(1)


def test_search_word_ops_bounded_by_height():
    # per-visit cost: <= 40 word ops on the multiplicative route, up to
    # ~80 for the rare per-bit-extraction fallback nodes
    rng = random.Random(71)
    t = FusionTree(width=64, cap=7)
    for _ in range(3000):
        try:
            t.insert(rng.getrandbits(64))
        except DuplicateKey:
            pass
    for _ in range(200):
        before = t.counters.word_ops
        t.search(rng.getrandbits(64))
        used = t.counters.word_ops - before
        assert used <= 80 * t.height

    # a tree whose every node stays on the constant-op route meets the
    # tight budget: keys below 2**8 keep each node's bit span within the
    # t=7 block budget, so the multiplier search never falls back
    t2 = FusionTree(width=64, cap=7)
    for k in rng.sample(range(256), 40):
        t2.insert(k)
    for x in range(256):
        before = t2.counters.word_ops
        t2.search(x)
        used = t2.counters.word_ops - before
        assert used <= 40 * t2.height


def test_rank_oracle():
    rng = random.Random(73)
    keys = rng.sample(range(1 << 32), 3000)
    t = FusionTree(width=32, cap=5)
    for k in keys:
        t.insert(k)
    ks = sorted(keys)
    assert t.rank(ks[-1]) == len(ks)
    assert t.rank(0) == (1 if ks[0] == 0 else 0)
    for _ in range(500):
        x = rng.randrange(1 << 32)
        assert t.rank(x) == sum(1 for k in ks if k <= x)
    for k in rng.sample(keys, 200):
        want = ks.index(k) + 1
        assert t.rank(k) == want


def test_predecessor_successor():
    t = FusionTree(width=16)
    for k in [223, 224, 225, 254]:
        t.insert(k)
    assert t.predecessor(231) == 225
    assert t.successor(231) == 254
    assert t.predecessor(222) is None
    assert t.successor(255) is None
    assert t.predecessor(224) == 224
    assert t.successor(224) == 224

    rng = random.Random(79)
    keys = sorted(rng.sample(range(1 << 16), 800))
    t2 = FusionTree(width=16, cap=4)
    for k in keys:
        t2.insert(k)
    import bisect
    for _ in range(400):
        x = rng.randrange(1 << 16)
        i = bisect.bisect_right(keys, x)
        assert t2.predecessor(x) == (keys[i - 1] if i else None)
        j = bisect.bisect_left(keys, x)
        assert t2.successor(x) == (keys[j] if j < len(keys) else None)


def test_in_order_empty():
    assert FusionTree().in_order() == []


def test_in_order_small_mixed_set():
    vals = [100, 200, 20, 60, 80, 5, 10, 15, 30, 40, 75, 85, 90, 95]
    t = FusionTree(width=16, cap=3)
    for v in vals:
        t.insert(v)
    assert t.in_order() == sorted(vals)
    t.check()
    # the sorter restores duplicates that the tree itself cannot hold
    assert fusion_sort(vals + [60], width=16, cap=3) == sorted(vals + [60])


def test_concurrent_reads_between_mutations():
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(103)
    keys = rng.sample(range(1 << 32), 2000)
    t = FusionTree(width=32)
    for k in keys:
        t.insert(k)
    ks = sorted(keys)

    def probe(seed):
        r = random.Random(seed)
        for _ in range(300):
            x = r.randrange(1 << 32)
            if t.rank(x) != sum(1 for k in ks if k <= x):
                return False
        return True

    with ThreadPoolExecutor(max_workers=4) as pool:
        assert all(pool.map(probe, range(8)))


def test_height_bound_shape():
    rng = random.Random(83)
    for cap in (3, 5, 7):
        t = FusionTree(width=64, cap=cap)
        n = 20000
        for _ in range(n):
            try:
                t.insert(rng.getrandbits(64))
            except DuplicateKey:
                pass
        m = (cap + 1) // 2
        bound = math.ceil(math.log((t.size + 1) / 2, m)) + 1
        assert t.height <= bound
        t.check()


def test_split_amortization():
    rng = random.Random(89)
    t = FusionTree(width=64, cap=7)
    n = 20000
    for _ in range(n):
        try:
            t.insert(rng.getrandbits(64))
        except DuplicateKey:
            pass
    min_fill = (t.cap + 1) // 2 - 1
    assert t.splits <= t.size / min_fill + t.height


def test_fusion_sort_basic():
    assert fusion_sort([]) == []
    assert fusion_sort([5]) == [5]
    assert fusion_sort([3, 1, 2]) == [1, 2, 3]
    assert fusion_sort([7, 7, 7, 7]) == [7, 7, 7, 7]
    data = list(range(100))
    assert fusion_sort(data) == data  # already sorted stays put
    assert fusion_sort(data[::-1]) == data


def test_fusion_sort_random_with_duplicates():
    rng = random.Random(97)
    for _ in range(30):
        data = [rng.randrange(50) for _ in range(rng.randrange(0, 400))]
        assert fusion_sort(data, width=8) == sorted(data)


def test_fusion_sort_signed():
    rng = random.Random(101)
    data = [rng.randint(-(1 << 63), (1 << 63) - 1) for _ in range(2000)]
    assert fusion_sort(data, signed=True) == sorted(data)
    with pytest.raises(NodeError):
        fusion_sort([1 << 63], signed=True)


@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=300))
@settings(max_examples=100, deadline=None)
def test_fusion_sort_matches_sorted(data):
    assert fusion_sort(data) == sorted(data)


def test_stats_variant_returns_tree():
    data = [5, 1, 5, 2]
    out, tree = fusion_sort_with_stats(data, width=8)
    assert out == [1, 2, 5, 5]
    assert tree.size == 3  # distinct keys only
    assert tree.counters.word_ops > 0


def test_tree_config_validation():
    with pytest.raises(NodeError):
        FusionTree(width=12)
    with pytest.raises(NodeError):
        FusionTree(cap=2)
    with pytest.raises(NodeError):
        FusionTree(cap=9)
    with pytest.raises(NodeError):
        FusionTree(strategy="bogus")


_TREES = {"fusion": FusionTree, "btree": BTree}


@pytest.mark.parametrize("width", [8, 64])
@pytest.mark.parametrize("kind", sorted(_TREES))
def test_tree_boundary_rejects_bad_words(kind, width):
    t = _TREES[kind](width=width, cap=3)
    for op in ("search", "rank", "predecessor", "successor"):  # empty tree too
        with pytest.raises(WordError):
            getattr(t, op)(-1)
    for k in range(0, 1 << 8, 9):
        t.insert(k)
    state = (t.size, t.height, t.counters.snapshot())
    for bad in (-1, 1 << width, True, 3.0, "5"):
        with pytest.raises(WordError):
            t.insert(bad)
        assert (t.size, t.height, t.counters.snapshot()) == state
        t.check()
        for op in ("search", "rank", "predecessor", "successor"):
            with pytest.raises(WordError):
                getattr(t, op)(bad)
    assert t.in_order() == list(range(0, 1 << 8, 9))


class _Key(IntEnum):
    SEVEN = 7
    TEN = 10


@pytest.mark.parametrize("kind", sorted(_TREES))
def test_tree_accepts_int_subclass(kind):
    t = _TREES[kind](width=8, cap=3)
    for k in (1, 5, 9, 200, 3):
        t.insert(k)
    t.insert(_Key.SEVEN)
    t.check()
    assert t.search(_Key.SEVEN) and t.search(7)
    assert t.rank(_Key.TEN) == 5
    assert t.predecessor(_Key.TEN) == 9 and t.successor(_Key.TEN) == 200
    assert t.in_order() == [1, 3, 5, 7, 9, 200]
