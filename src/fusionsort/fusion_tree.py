"""Balanced search tree of packed-sketch nodes, plus the derived sorter.

Shape and insertion follow the classic wide-node search tree: every
leaf sits at the same depth, full nodes split around their median on
the way down, and an in-order walk enumerates the keys sorted.  The
difference from the baseline in btree.py is purely per node: the child
branch for a key is found with a fixed number of word operations
instead of a linear scan.

Each node also carries its subtree cardinality so that tree-level rank
is exact.  Keys are unsigned words of the tree's width; the sorter maps
signed inputs through an order-preserving offset when asked to.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat

from .counters import OpCounters
from .fusion_node import CAP_LIMIT, FusionNode, NodeError
from .sketch import MULTIPLICATIVE, STRATEGIES
from .trie import DuplicateKey
from .wordops import WIDTHS, check_word


class FusionTree:
    """Single-writer, multi-reader tree; queries never mutate user state.

    Word-op and key-comparison charges accumulate on ``self.counters``;
    callers scope a measurement by snapshotting before and after.
    """

    def __init__(self, *, width: int = 64, cap: int = 7,
                 strategy: str = MULTIPLICATIVE):
        if width not in WIDTHS:
            raise NodeError(f"unsupported width {width!r}")
        if not 3 <= cap <= CAP_LIMIT:
            raise NodeError(f"cap {cap} outside [3, {CAP_LIMIT}]")
        if strategy not in STRATEGIES:
            raise NodeError(f"unknown sketch strategy {strategy!r}")
        self.width = width
        self.cap = cap
        self.strategy = strategy
        self.root: FusionNode | None = None
        self.size = 0
        self.height = 0
        self.splits = 0
        self.counters = OpCounters()

    # -- construction -----------------------------------------------------

    def _new_node(self, keys_sorted: list[int]) -> FusionNode:
        return FusionNode(keys_sorted, width=self.width, cap=self.cap,
                          strategy=self.strategy, _sorted=True)

    def _split_node(self, node: FusionNode):
        """Split a full node around its median; returns (left, median, right)."""
        m = self.cap // 2
        ks = node.keys
        median = ks[m]
        left = self._new_node(ks[:m])
        right = self._new_node(ks[m + 1:])
        if node.children is not None:
            left.children = node.children[:m + 1]
            right.children = node.children[m + 1:]
            left.subtree_size = len(left.keys) + sum(
                c.subtree_size for c in left.children)
            right.subtree_size = len(right.keys) + sum(
                c.subtree_size for c in right.children)
        self.splits += 1
        return left, median, right

    def insert(self, x: int) -> None:
        check_word(x, self.width)
        c = self.counters
        if self.root is None:
            self.root = self._new_node([x])
            self.size = 1
            self.height = 1
            return
        if len(self.root.keys) == self.cap:
            left, median, right = self._split_node(self.root)
            root = self._new_node([median])
            root.children = [left, right]
            root.subtree_size = 1 + left.subtree_size + right.subtree_size
            self.root = root
            self.height += 1
        node = self.root
        path = []
        while True:
            if node._scheme is None:
                node._ensure()
            i = node._rank(x, c)
            if i:
                c.key_compares += 1
                if node.keys[i - 1] == x:
                    raise DuplicateKey(f"duplicate key {x}")
            path.append(node)
            if node.children is None:
                node.keys.insert(i, x)
                node._invalidate()
                break
            child = node.children[i]
            if len(child.keys) == self.cap:
                left, median, right = self._split_node(child)
                node.keys.insert(i, median)
                node.children[i:i + 1] = [left, right]
                node._invalidate()
                c.key_compares += 1
                if x == median:
                    raise DuplicateKey(f"duplicate key {x}")
                if x > median:
                    i += 1
                child = node.children[i]
            node = child
        for n in path:
            n.subtree_size += 1
        self.size += 1

    # -- queries ----------------------------------------------------------

    def search(self, x: int) -> bool:
        check_word(x, self.width)
        c = self.counters
        node = self.root
        while node is not None:
            if node._scheme is None:
                node._ensure()
            i = node._rank(x, c)
            if i:
                c.key_compares += 1
                if node.keys[i - 1] == x:
                    return True
            node = node.children[i] if node.children is not None else None
        return False

    def rank(self, x: int) -> int:
        """Number of stored keys <= x: per-level node rank plus the
        cardinalities of the subtrees passed on the left."""
        check_word(x, self.width)
        c = self.counters
        node = self.root
        total = 0
        while node is not None:
            if node._scheme is None:
                node._ensure()
            i = node._rank(x, c)
            total += i
            member = False
            if i:
                c.key_compares += 1
                member = node.keys[i - 1] == x
            if node.children is None:
                return total
            if i:
                c.word_ops += i
                for ch in node.children[:i]:
                    total += ch.subtree_size
            if member:
                return total
            node = node.children[i]
        return total

    def predecessor(self, x: int) -> int | None:
        """Largest stored key <= x, or None."""
        check_word(x, self.width)
        c = self.counters
        node = self.root
        best = None
        while node is not None:
            if node._scheme is None:
                node._ensure()
            i = node._rank(x, c)
            if i:
                best = node.keys[i - 1]  # deeper candidates are larger
                c.key_compares += 1
                if best == x:
                    return x
            node = node.children[i] if node.children is not None else None
        return best

    def successor(self, x: int) -> int | None:
        """Smallest stored key >= x, or None."""
        check_word(x, self.width)
        c = self.counters
        node = self.root
        best = None
        while node is not None:
            if node._scheme is None:
                node._ensure()
            i = node._rank(x, c)
            if i:
                c.key_compares += 1
                if node.keys[i - 1] == x:
                    return x
            if i < len(node.keys):
                best = node.keys[i]  # deeper candidates are smaller
            node = node.children[i] if node.children is not None else None
        return best

    def in_order(self) -> list[int]:
        """All keys, strictly increasing."""
        out: list[int] = []

        def walk(n: FusionNode) -> None:
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


def multiplicity_sort(tree, values, *, signed: bool = False):
    """Sort values through an empty tree: insert each distinct key once,
    in first-occurrence order, then replay multiplicities along the
    in-order walk.  Signed values map through the order-preserving
    offset 2**(width-1).  Returns (sorted list, tree)."""
    counts = Counter(values)  # one C pass; keeps first-occurrence order
    if signed:
        top = 1 << (tree.width - 1)
        for v in counts:
            if not -top <= v < top:
                raise NodeError(f"value {v} out of signed {tree.width}-bit range")
        counts = {v + top: n for v, n in counts.items()}
    # Unsigned keys go in and come out as the caller's own int objects:
    # offsetting by 0 would allocate a new big int per key.
    for u in counts:
        tree.insert(u)
    out: list[int] = []
    for u in tree.in_order():
        v = u - top if signed else u
        n = counts[u]
        if n == 1:
            out.append(v)
        else:
            out.extend(repeat(v, n))
    return out, tree


def fusion_sort_with_stats(values, *, width: int = 64, cap: int = 7,
                           strategy: str = MULTIPLICATIVE,
                           signed: bool = False):
    """Sort by inserting every distinct key and replaying multiplicities
    during the in-order walk.  Returns (sorted list, tree)."""
    return multiplicity_sort(
        FusionTree(width=width, cap=cap, strategy=strategy), values,
        signed=signed)


def fusion_sort(values, *, width: int = 64, cap: int = 7,
                strategy: str = MULTIPLICATIVE, signed: bool = False) -> list[int]:
    """Nondecreasing permutation of values (duplicates permitted)."""
    out, _ = fusion_sort_with_stats(values, width=width, cap=cap,
                                    strategy=strategy, signed=signed)
    return out
