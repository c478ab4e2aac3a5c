"""The wide-node search tree, its packed-sketch variant, and the sorter.

Shape and insertion follow the classic wide-node search tree: every
leaf sits at the same depth, full nodes split around their median on
the way down, and an in-order walk enumerates the keys sorted.
``SearchTree`` holds all of that once; ``FusionTree`` and the baseline
``BTree`` (btree.py) differ purely per node: a fixed number of word
operations finds the child branch in one, a linear scan in the other.

The four reads (search, rank, predecessor, successor) each make their
own charged descent: rank also sums the subtrees it passes on the left,
and predecessor and successor keep the nearest stored key on their side
of the query.  Each node carries its subtree cardinality so that
tree-level rank is exact.  Keys are unsigned words of the tree's width.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import repeat

from .counters import OpCounters
from .fusion_node import CAP_LIMIT, FusionNode, NodeError
from .sketch import MULTIPLICATIVE, STRATEGIES
from .trie import DuplicateKey
from .wordops import WIDTHS, check_word


class SearchTree:
    """Wide-node tree skeleton; a subclass builds its nodes (``_new_node``).

    A node offers ``keys``, ``children``, ``subtree_size``,
    ``_invalidate()`` and one in-node search, ``locate(x, counters)``:
    (number of keys <= x, whether x is stored there), charging its own
    work.  Splits, descent, rank and the walk are shared, so two trees
    fed the same insertion order split identically.

    Single-writer, multi-reader; queries never mutate user state.
    Word-op and key-comparison charges accumulate on ``self.counters``;
    callers scope a measurement by snapshotting before and after.
    """

    def __init__(self, *, width: int = 64, cap: int = 7):
        if width not in WIDTHS:
            raise NodeError(f"unsupported width {width!r}")
        if not 3 <= cap <= CAP_LIMIT:
            raise NodeError(f"cap {cap} outside [3, {CAP_LIMIT}]")
        self.width = width
        self.cap = cap
        self.root = None
        self.size = 0
        self.height = 0
        self.splits = 0
        self.counters = OpCounters()

    # -- construction -----------------------------------------------------

    def _split_node(self, node):
        """Split a full node around its median; returns (left, median, right)."""
        m = self.cap // 2
        ks = node.keys
        median = ks[m]
        left = self._new_node(ks[:m])
        right = self._new_node(ks[m + 1:])
        if node.children is not None:
            left.children = node.children[:m + 1]
            right.children = node.children[m + 1:]
            left.subtree_size = m + sum(c.subtree_size for c in left.children)
            right.subtree_size = node.subtree_size - left.subtree_size - 1
        self.splits += 1
        return left, median, right

    def insert(self, x: int) -> None:
        if x.__class__ is not int or x < 0 or x >> self.width:
            check_word(x, self.width)  # raises, or admits an int subclass
        c = self.counters
        cap = self.cap
        node = self.root
        if node is None:
            self.root = self._new_node([x])
            self.size = self.height = 1
            return
        if len(node.keys) == cap:
            left, median, right = self._split_node(node)
            node = self._new_node([median])
            node.children = [left, right]
            node.subtree_size = 1 + left.subtree_size + right.subtree_size
            self.root = node
            self.height += 1
        while True:
            i, member = node.locate(x, c)
            if member:
                raise self._duplicate(x)
            kids = node.children
            if kids is None:
                break
            child = kids[i]
            if len(child.keys) == cap:
                left, median, right = self._split_node(child)
                node.keys.insert(i, median)
                kids[i:i + 1] = [left, right]
                node._invalidate()
                c.key_compares += 1
                if x == median:
                    raise self._duplicate(x)
                child = right if x > median else left
            # counted on the way down; _duplicate takes it back
            node.subtree_size += 1
            node = child
        node.keys.insert(i, x)
        node._invalidate()
        node.subtree_size += 1
        self.size += 1

    def _duplicate(self, x: int) -> DuplicateKey:
        """Undo a failed insert's subtree-size bumps: an uncharged descent
        decrements every strict ancestor of the node holding x."""
        node = self.root
        while True:
            ks = node.keys
            i = bisect_left(ks, x)
            if i < len(ks) and ks[i] == x:
                return DuplicateKey(f"duplicate key {x}")
            node.subtree_size -= 1
            node = node.children[i]

    # -- queries ----------------------------------------------------------
    # One descent per read, each stopping at the node holding x and
    # testing x as insert does.

    def search(self, x: int) -> bool:
        if x.__class__ is not int or x < 0 or x >> self.width:
            check_word(x, self.width)
        c = self.counters
        node = self.root
        while node is not None:
            i, member = node.locate(x, c)
            if member:
                return True
            kids = node.children
            if kids is None:
                break
            node = kids[i]
        return False

    def rank(self, x: int) -> int:
        """Number of stored keys <= x: per-level node rank plus the
        cardinalities of the subtrees passed on the left, summed at a
        word op per subtree."""
        if x.__class__ is not int or x < 0 or x >> self.width:
            check_word(x, self.width)
        c = self.counters
        node = self.root
        total = 0
        while node is not None:
            i, member = node.locate(x, c)
            total += i
            kids = node.children
            if kids is None:
                break
            c.word_ops += i
            for ch in kids[:i]:
                total += ch.subtree_size
            if member:
                break
            node = kids[i]
        return total

    def predecessor(self, x: int) -> int | None:
        """Largest stored key <= x, or None."""
        if x.__class__ is not int or x < 0 or x >> self.width:
            check_word(x, self.width)
        c = self.counters
        node = self.root
        best = None
        while node is not None:
            i, member = node.locate(x, c)
            if member:
                return x
            if i:
                best = node.keys[i - 1]  # deeper candidates are larger
            kids = node.children
            if kids is None:
                break
            node = kids[i]
        return best

    def successor(self, x: int) -> int | None:
        """Smallest stored key >= x, or None."""
        if x.__class__ is not int or x < 0 or x >> self.width:
            check_word(x, self.width)
        c = self.counters
        node = self.root
        best = None
        while node is not None:
            i, member = node.locate(x, c)
            if member:
                return x
            ks = node.keys
            if i < len(ks):
                best = ks[i]  # deeper candidates are smaller
            kids = node.children
            if kids is None:
                break
            node = kids[i]
        return best

    def in_order(self) -> list[int]:
        """All keys, strictly increasing."""
        out: list[int] = []
        if self.root is not None:
            _walk(self.root, out)
        return out

    def __len__(self) -> int:
        return self.size

    def __contains__(self, x: int) -> bool:
        return self.search(x)

    # -- invariants -------------------------------------------------------

    def check(self) -> None:
        """Verify the structure; raise AssertionError naming the first
        offending node's keys and depth.

        Keys strictly increase between the separators above them; a node
        holds at most cap keys and, below the root, at least
        ceil(cap/2) - 1; an internal node has one child more than keys;
        every leaf sits at depth ``height``; each ``subtree_size`` is
        exact and ``size`` is the root's.
        """
        low = (self.cap + 1) // 2 - 1
        # the separators of the root are the ends of the key universe
        total = (_check(self.root, 1, -1, 1 << self.width, low, self.cap,
                        self.height) if self.root else 0)
        if total != self.size or (self.root is None) != (self.height == 0):
            raise AssertionError(f"size {self.size}, height {self.height}, "
                                 f"tree holds {total} keys")


def _check(node, depth: int, lo: int, hi: int, low: int, cap: int,
           height: int) -> int:
    """Verify the subtree under node, whose keys lie strictly between lo
    and hi, for ``SearchTree.check``; returns its key count.  ``low`` is
    the fewest keys a node below the root may hold."""
    ks, kids = node.keys, node.children
    bounds = [lo, *ks, hi]
    if not (1 if depth == 1 else low) <= len(ks) <= cap:
        fault = f"{len(ks)} keys"
    elif any(a >= b for a, b in zip(bounds, bounds[1:])):
        fault = f"keys not strictly increasing between {lo} and {hi}"
    elif (kids is None) != (depth == height):
        fault = f"leaves must sit at depth {height}"
    elif kids is not None and len(kids) != len(ks) + 1:
        fault = f"{len(kids)} children"
    else:
        total = len(ks) + sum(
            _check(ch, depth + 1, bounds[i], bounds[i + 1], low, cap, height)
            for i, ch in enumerate(kids or ()))
        if node.subtree_size == total:
            return total
        fault = f"subtree_size {node.subtree_size}, holds {total}"
    raise AssertionError(f"node {ks} at depth {depth}: {fault}")


def _walk(node, out: list) -> None:
    """Append the keys under node to out, in order."""
    if node.children is None:
        out.extend(node.keys)
        return
    for i, k in enumerate(node.keys):
        _walk(node.children[i], out)
        out.append(k)
    _walk(node.children[-1], out)


class FusionTree(SearchTree):
    """The tree over packed-sketch nodes: in-node search is a constant
    number of word operations."""

    def __init__(self, *, width: int = 64, cap: int = 7,
                 strategy: str = MULTIPLICATIVE):
        super().__init__(width=width, cap=cap)
        if strategy not in STRATEGIES:
            raise NodeError(f"unknown sketch strategy {strategy!r}")
        self.strategy = strategy

    def _new_node(self, keys_sorted: list[int]) -> FusionNode:
        return FusionNode(keys_sorted, width=self.width, cap=self.cap,
                          strategy=self.strategy, _sorted=True)

    # bound here too: perfbench's tracer patches through the class __dict__
    insert, search, rank = SearchTree.insert, SearchTree.search, SearchTree.rank
    predecessor, successor = SearchTree.predecessor, SearchTree.successor
    in_order = SearchTree.in_order


def multiplicity_sort(tree, values):
    """Sort values through an empty tree: insert each distinct key once,
    in first-occurrence order, then replay multiplicities along the
    in-order walk; when every key is distinct the walk is the output.
    Returns (sorted list, tree)."""
    counts = Counter(values)  # one C pass; keeps first-occurrence order
    distinct = counts.total() == len(counts)
    for u in counts:
        tree.insert(u)
    walk = tree.in_order()
    if distinct:
        return walk, tree
    out: list[int] = []
    for u in walk:
        n = counts[u]
        if n == 1:
            out.append(u)
        else:
            out.extend(repeat(u, n))
    return out, tree


def fusion_sort_with_stats(values, *, width: int = 64, cap: int = 7,
                           strategy: str = MULTIPLICATIVE):
    """Sort by inserting every distinct key and replaying multiplicities
    during the in-order walk.  Returns (sorted list, tree)."""
    return multiplicity_sort(
        FusionTree(width=width, cap=cap, strategy=strategy), values)


def fusion_sort(values, *, width: int = 64, cap: int = 7,
                strategy: str = MULTIPLICATIVE) -> list[int]:
    """Nondecreasing permutation of values (duplicates permitted)."""
    out, _ = fusion_sort_with_stats(values, width=width, cap=cap,
                                    strategy=strategy)
    return out
