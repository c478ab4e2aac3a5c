"""Oracle for the shared multiplicity sort behind both tree sorters.

Each sorter must return sorted() and charge exactly what a tree charges
when it is handed the distinct keys in first-occurrence order.
"""

import random

import pytest

from fusionsort.btree import BTree, btree_sort_with_stats
from fusionsort.fusion_tree import FusionTree, fusion_sort_with_stats


def _dense8(rng):
    return [rng.randrange(40) * 6 for _ in range(3000)]


def _uniform64(rng):
    return [rng.getrandbits(64) for _ in range(1500)]


def _signed32_dups(rng):
    pool = [rng.randint(-(1 << 31), (1 << 31) - 1) for _ in range(60)]
    pool += [-(1 << 31), (1 << 31) - 1, -1, 0]  # both range ends and the sign flip
    return [rng.choice(pool) for _ in range(2500)]


CASES = [(_dense8, 8, False), (_uniform64, 64, False), (_signed32_dups, 32, True)]
SORTERS = [(fusion_sort_with_stats, FusionTree), (btree_sort_with_stats, BTree)]


def _charges(tree):
    c = tree.counters
    return c.word_ops, c.key_compares, tree.height, tree.splits


@pytest.mark.parametrize("sorter,tree_cls", SORTERS,
                         ids=lambda x: getattr(x, "__name__", ""))
@pytest.mark.parametrize("make,width,signed", CASES,
                         ids=["dense8", "uniform64", "signed32_dups"])
def test_sorter_matches_oracle(sorter, tree_cls, make, width, signed):
    data = make(random.Random(f"{make.__name__}:{width}"))
    out, tree = sorter(data, width=width, cap=5, signed=signed)
    assert out == sorted(data)

    offset = 1 << (width - 1) if signed else 0
    ref = tree_cls(width=width, cap=5)
    for v in dict.fromkeys(data):  # distinct keys, first occurrence first
        ref.insert(v + offset)
    assert len(tree) == len(ref)
    assert _charges(tree) == _charges(ref)
    assert tree.in_order() == ref.in_order()
