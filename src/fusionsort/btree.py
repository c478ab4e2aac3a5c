"""Constant-degree B-tree with linear in-node search: the baseline.

The tree is the shared ``SearchTree`` skeleton (fusion_tree.py), so it
splits exactly as the fusion tree does and offers the same queries.
Only the node differs: a sequential scan charging one key comparison
per inspected key.
"""

from __future__ import annotations

from .counters import OpCounters
from .fusion_tree import SearchTree, multiplicity_sort


class BTreeNode:
    __slots__ = ("keys", "children", "subtree_size")

    def __init__(self, keys: list[int]):
        self.keys = keys
        self.children: list[BTreeNode] | None = None
        self.subtree_size = len(keys)

    def locate(self, x: int, counters: OpCounters):
        """Sequential in-node search; one charged comparison per key
        looked at, up to the first key >= x, which alone is tested for
        equality.  Returns (number of keys <= x, whether x is here)."""
        i = 0
        for k in self.keys:
            if x <= k:
                counters.key_compares += i + 1
                return (i + 1, True) if x == k else (i, False)
            i += 1
        counters.key_compares += i
        return i, False

    def _invalidate(self) -> None:
        """Nothing is derived from the keys."""


class BTree(SearchTree):
    def _new_node(self, keys_sorted: list[int]) -> BTreeNode:
        return BTreeNode(keys_sorted)

    # bound here too: perfbench's tracer patches through the class __dict__
    insert, search, rank = SearchTree.insert, SearchTree.search, SearchTree.rank
    predecessor, successor = SearchTree.predecessor, SearchTree.successor
    in_order = SearchTree.in_order


def btree_sort_with_stats(values, *, width: int = 64, cap: int = 7):
    """Insert-all-then-walk sort with a multiplicity side table."""
    return multiplicity_sort(BTree(width=width, cap=cap), values)


def btree_sort(values, *, width: int = 64, cap: int = 7) -> list[int]:
    """Nondecreasing permutation of values (duplicates permitted)."""
    out, _ = btree_sort_with_stats(values, width=width, cap=cap)
    return out
