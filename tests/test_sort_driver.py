"""Oracle for the shared multiplicity sort behind both tree sorters.

Each sorter must return sorted() and charge exactly what a tree charges
when it is handed the distinct keys in first-occurrence order, whether
keys repeat (the walk is replayed with multiplicities) or not (the walk
is the output), and whether the input is a list or a one-pass generator.
"""

import random

import pytest

from fusionsort import sketch
from fusionsort.btree import BTree, btree_sort_with_stats
from fusionsort.fusion_tree import FusionTree, fusion_sort, fusion_sort_with_stats


def _dense8(rng):
    return [rng.randrange(40) * 6 for _ in range(3000)]


def _uniform64(rng):
    return [rng.getrandbits(64) for _ in range(1500)]


def _signed32_dups(rng):
    pool = [rng.randint(-(1 << 31), (1 << 31) - 1) for _ in range(60)]
    pool += [-(1 << 31), (1 << 31) - 1, -1, 0]  # both range ends and the sign flip
    return [rng.choice(pool) for _ in range(2500)]


def _signed32_distinct(rng):
    keys = rng.sample(range(-(1 << 31), 1 << 31), 2000)
    keys += [-(1 << 31), (1 << 31) - 1, -1, 0]  # both range ends and the sign flip
    return list(dict.fromkeys(keys))


def _generator(data):
    return (v for v in data)  # no len(), one pass


CASES = [(_dense8, 8, False, list), (_uniform64, 64, False, list),
         (_signed32_dups, 32, True, list), (_signed32_distinct, 32, True, list),
         (_uniform64, 64, False, _generator)]
SORTERS = [(fusion_sort_with_stats, FusionTree), (btree_sort_with_stats, BTree)]


def _charges(tree):
    c = tree.counters
    return c.word_ops, c.key_compares, tree.height, tree.splits


@pytest.mark.parametrize("sorter,tree_cls", SORTERS,
                         ids=lambda x: getattr(x, "__name__", ""))
@pytest.mark.parametrize("make,width,signed,feed", CASES,
                         ids=["dense8", "uniform64", "signed32_dups",
                              "signed32_distinct", "uniform64_generator"])
def test_sorter_matches_oracle(sorter, tree_cls, make, width, signed, feed):
    data = make(random.Random(f"{make.__name__}:{width}"))
    out, tree = sorter(feed(data), width=width, cap=5, signed=signed)
    assert out == sorted(data)

    offset = 1 << (width - 1) if signed else 0
    ref = tree_cls(width=width, cap=5)
    for v in dict.fromkeys(data):  # distinct keys, first occurrence first
        ref.insert(v + offset)
    assert len(tree) == len(ref)
    assert _charges(tree) == _charges(ref)
    assert tree.in_order() == ref.in_order()


def test_cold_caches_stay_cold():
    # Clearing the two sketch caches must drop every multiplier search a
    # sort made: no other cache (the node layout cache included) keeps one.
    rng = random.Random(7)
    data = [rng.getrandbits(64) for _ in range(2000)]
    misses = []
    for _ in range(2):
        sketch._scheme_cached.cache_clear()
        sketch._find_multiplier_cached.cache_clear()
        assert fusion_sort(data) == sorted(data)
        misses.append(sketch._find_multiplier_cached.cache_info().misses)
    assert misses[0] == misses[1] > 0
