import math
import random

import pytest

from fusionsort.btree import BTree, btree_sort, btree_sort_with_stats
from fusionsort.fusion_tree import FusionTree
from fusionsort.trie import DuplicateKey


def test_split_promotes_median():
    # filling a 7-key node and adding one more: median goes up, halves of 3
    t = BTree(width=16, cap=7)
    for k in [80, 81, 82, 83, 84, 85, 86]:
        t.insert(k)
    assert t.height == 1
    t.insert(87)
    assert t.height == 2
    assert t.root.keys == [83]
    assert [c.keys for c in t.root.children] == [[80, 81, 82], [84, 85, 86, 87]]
    t.check()


def test_insert_empty_then_duplicates():
    t = BTree(width=16)
    t.insert(9)
    assert t.root.keys == [9]
    with pytest.raises(DuplicateKey):
        t.insert(9)


def test_height_log_bound():
    rng = random.Random(7)
    for cap in (3, 5, 7):
        t = BTree(width=64, cap=cap)
        for _ in range(20000):
            try:
                t.insert(rng.getrandbits(64))
            except DuplicateKey:
                pass
        m = (cap + 1) // 2
        assert t.height <= math.ceil(math.log((t.size + 1) / 2, m)) + 1
        t.check()


def test_search_and_compare_counting():
    t = BTree(width=16, cap=7)
    keys = [10, 20, 30, 40, 50]
    for k in keys:
        t.insert(k)
    before = t.counters.key_compares
    assert t.search(30)
    assert t.counters.key_compares - before == 3  # scanned 10,20,30
    before = t.counters.key_compares
    assert not t.search(60)  # above all: scans all five keys
    assert t.counters.key_compares - before == 5
    before = t.counters.key_compares
    assert not t.search(5)
    assert t.counters.key_compares - before == 1


def test_in_order_matches_sorted():
    rng = random.Random(11)
    t = BTree(width=32, cap=4)
    keys = rng.sample(range(1 << 32), 3000)
    for k in keys:
        t.insert(k)
    assert t.in_order() == sorted(keys)
    t.check()


def test_btree_sort():
    assert btree_sort([]) == []
    assert btree_sort([2, 1, 2]) == [1, 2, 2]
    data = list(range(500))
    assert btree_sort(data) == data
    rng = random.Random(13)
    for _ in range(20):
        data = [rng.randrange(100) for _ in range(rng.randrange(400))]
        assert btree_sort(data, width=8) == sorted(data)


def test_structural_equivalence_with_fusion_tree():
    # same cap, same insertion order: identical key-to-node distribution
    rng = random.Random(19)
    for cap in (3, 5, 7):
        keys = rng.sample(range(1 << 24), 1500)
        bt = BTree(width=32, cap=cap)
        ft = FusionTree(width=32, cap=cap)
        for k in keys:
            bt.insert(k)
            ft.insert(k)
        assert bt.height == ft.height
        assert bt.splits == ft.splits

        def shape(node):
            if node.children is None:
                return tuple(node.keys)
            return (tuple(node.keys),) + tuple(shape(c) for c in node.children)

        assert shape(bt.root) == shape(ft.root)


def test_sort_comparison_counter_grows():
    rng = random.Random(23)
    data = [rng.getrandbits(64) for _ in range(4000)]
    out, tree = btree_sort_with_stats(data)
    assert out == sorted(data)
    # at least ~n log_B n comparisons and no word ops at all
    assert tree.counters.key_compares > len(data)
    assert tree.counters.word_ops == 0
