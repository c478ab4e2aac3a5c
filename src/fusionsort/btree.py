"""Constant-degree B-tree with linear in-node search: the baseline.

Same shape discipline as the fusion tree (equal-depth leaves, proactive
median split on the way down, same median index), so the two structures
distribute identical insertion orders into identical nodes.  The only
difference is in-node search cost: a sequential scan charging one key
comparison per inspected key.
"""

from __future__ import annotations

from .counters import OpCounters
from .fusion_node import CAP_LIMIT, NodeError
from .fusion_tree import multiplicity_sort
from .trie import DuplicateKey
from .wordops import WIDTHS, check_word


class BTreeNode:
    __slots__ = ("keys", "children")

    def __init__(self, keys: list[int]):
        self.keys = keys
        self.children: list[BTreeNode] | None = None


class BTree:
    def __init__(self, *, width: int = 64, cap: int = 7):
        if width not in WIDTHS:
            raise NodeError(f"unsupported width {width!r}")
        if not 3 <= cap <= CAP_LIMIT:
            raise NodeError(f"cap {cap} outside [3, {CAP_LIMIT}]")
        self.width = width
        self.cap = cap
        self.root: BTreeNode | None = None
        self.size = 0
        self.height = 0
        self.splits = 0
        self.counters = OpCounters()

    def _scan(self, node: BTreeNode, x: int):
        """Sequential in-node search; one charged comparison per key looked at."""
        c = self.counters
        i = 0
        for k in node.keys:
            c.key_compares += 1
            if x < k:
                return i, False
            if x == k:
                return i, True
            i += 1
        return i, False

    def _split_node(self, node: BTreeNode):
        m = self.cap // 2
        ks = node.keys
        median = ks[m]
        left = BTreeNode(ks[:m])
        right = BTreeNode(ks[m + 1:])
        if node.children is not None:
            left.children = node.children[:m + 1]
            right.children = node.children[m + 1:]
        self.splits += 1
        return left, median, right

    def insert(self, x: int) -> None:
        check_word(x, self.width)
        if self.root is None:
            self.root = BTreeNode([x])
            self.size = 1
            self.height = 1
            return
        if len(self.root.keys) == self.cap:
            left, median, right = self._split_node(self.root)
            root = BTreeNode([median])
            root.children = [left, right]
            self.root = root
            self.height += 1
        node = self.root
        while True:
            i, member = self._scan(node, x)
            if member:
                raise DuplicateKey(f"duplicate key {x}")
            if node.children is None:
                node.keys.insert(i, x)
                break
            child = node.children[i]
            if len(child.keys) == self.cap:
                left, median, right = self._split_node(child)
                node.keys.insert(i, median)
                node.children[i:i + 1] = [left, right]
                self.counters.key_compares += 1
                if x == median:
                    raise DuplicateKey(f"duplicate key {x}")
                if x > median:
                    i += 1
                child = node.children[i]
            node = child
        self.size += 1

    def search(self, x: int) -> bool:
        check_word(x, self.width)
        node = self.root
        while node is not None:
            i, member = self._scan(node, x)
            if member:
                return True
            node = node.children[i] if node.children is not None else None
        return False

    def in_order(self) -> list[int]:
        out: list[int] = []

        def walk(n: BTreeNode) -> None:
            if n.children is None:
                out.extend(n.keys)
                return
            for i, k in enumerate(n.keys):
                walk(n.children[i])
                out.append(k)
            walk(n.children[-1])

        if self.root is not None:
            walk(self.root)
        return out

    def __len__(self) -> int:
        return self.size

    def __contains__(self, x: int) -> bool:
        return self.search(x)


def btree_sort_with_stats(values, *, width: int = 64, cap: int = 7,
                          signed: bool = False):
    """Insert-all-then-walk sort with a multiplicity side table."""
    return multiplicity_sort(BTree(width=width, cap=cap), values,
                             signed=signed)


def btree_sort(values, *, width: int = 64, cap: int = 7,
               signed: bool = False) -> list[int]:
    """Nondecreasing permutation of values (duplicates permitted)."""
    out, _ = btree_sort_with_stats(values, width=width, cap=cap, signed=signed)
    return out
