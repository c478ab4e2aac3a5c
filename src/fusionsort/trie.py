"""Compressed binary trie over fixed-width integer keys.

The branch-only trie of t distinct keys has exactly t - 1 internal
nodes, each labeled with the bit index at which its two subtrees
diverge; leaves hold the keys in increasing order left to right, and
branch bits strictly decrease along every root-to-leaf path.

This is the structurally explicit reference implementation: descent
search and the two-pass rank procedure walk the tree node by node, and
the packed word-parallel machinery in fusion_node is cross-checked
against it.
"""

from __future__ import annotations

from bisect import bisect_left

from .wordops import check_word


class TrieError(ValueError):
    """Base error for trie operations."""


class DuplicateKey(TrieError):
    """Key is already present."""


class _Leaf:
    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key


class _Branch:
    __slots__ = ("bit", "zero", "one")

    def __init__(self, bit: int, zero, one):
        self.bit = bit
        self.zero = zero
        self.one = one


class CompressedTrie:
    """Trie built once from its keys, then only read."""

    __slots__ = ("width", "root", "_keys")

    def __init__(self, keys=(), *, width: int = 64):
        ks = sorted(keys)
        for k in ks:
            check_word(k, width)
        for a, b in zip(ks, ks[1:]):
            if a == b:
                raise DuplicateKey(f"duplicate key {a}")
        self.width = width
        self._keys: list[int] = ks
        self.root = self._build(ks, 0, len(ks)) if ks else None

    # -- construction --------------------------------------------------

    def _build(self, ks: list[int], lo: int, hi: int):
        if hi - lo == 1:
            return _Leaf(ks[lo])
        bit = (ks[lo] ^ ks[hi - 1]).bit_length() - 1
        # keys sorted and sharing all bits above `bit`: zeros then ones
        mid = bisect_left(ks, 1, lo, hi, key=lambda k: (k >> bit) & 1)
        return _Branch(bit, self._build(ks, lo, mid), self._build(ks, mid, hi))

    # -- queries --------------------------------------------------------

    def _descend(self, x: int) -> int:
        node = self.root
        while isinstance(node, _Branch):
            node = node.one if (x >> node.bit) & 1 else node.zero
        return node.key

    def rank(self, x: int) -> int:
        """Number of keys <= x.

        First descent finds the key sharing x's branch-path bits.  If it
        is not x itself, the most significant differing bit marks where
        x falls off the trie; forcing the lower bits all-ones (when x
        carries a 1 there) steers a second descent to the predecessor,
        forcing them all-zero steers it to the successor.
        """
        check_word(x, self.width)
        if self.root is None:
            return 0
        s = self._descend(x)
        if s == x:
            return bisect_left(self._keys, x) + 1
        b = (x ^ s).bit_length() - 1
        if (x >> b) & 1:
            pred = self._descend(x | ((2 << b) - 1))
            return bisect_left(self._keys, pred) + 1
        succ = self._descend(x >> (b + 1) << (b + 1))
        return bisect_left(self._keys, succ)

    # -- structure ------------------------------------------------------

    def _branches(self):
        """Every branch node once, walked from the root."""
        stack = [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            if isinstance(node, _Branch):
                yield node
                stack.append(node.zero)
                stack.append(node.one)

    def relevant_bits(self) -> tuple[int, ...]:
        """Deduplicated branch bit indices, descending."""
        return tuple(sorted({node.bit for node in self._branches()}, reverse=True))

    def internal_node_count(self) -> int:
        return sum(1 for _ in self._branches())

    def to_dot(self) -> str:
        """DOT graph: nodes named n<preorder-index>, 0-edges left, 1-edges right."""
        lines = [
            "digraph compressed_trie {",
            "  node [fontname=monospace];",
        ]
        if self.root is not None:
            _emit(self.root, self.width, lines, 0)
        lines.append("}")
        return "\n".join(lines) + "\n"


def _emit(node, width: int, lines: list, i: int) -> int:
    """Append the DOT lines of the subtree under node, its nodes named
    n<i>, n<i+1>, ... in preorder; returns the next free index.  Each
    edge line follows its child's subtree."""
    name = f"n{i}"
    if isinstance(node, _Leaf):
        lines.append(f'  {name} [shape=box label="{node.key:0{width}b}"];')
        return i + 1
    lines.append(f'  {name} [label="b{node.bit}"];')
    one = _emit(node.zero, width, lines, i + 1)
    lines.append(f'  {name} -> n{i + 1} [label="0"];')
    end = _emit(node.one, width, lines, one)
    lines.append(f'  {name} -> n{one} [label="1"];')
    return end
