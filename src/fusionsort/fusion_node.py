"""Packed-sketch node: constant-word-op in-node rank over up to cap keys.

A node of t sorted keys packs one separator-marked sketch per key into a
single machine word,

    node_word = 1 sk(s1) | 1 sk(s2) | ... | 1 sk(st)

with s1 in the most significant block.  Subtracting the replicated query
word 0 sk(x) | ... | 0 sk(x) borrows out of exactly the separators whose
block sketch is smaller than sk(x); masking the separator positions and
taking floor(lg) of the survivor word therefore counts the node sketches
below sk(x) in a number of word operations that does not depend on t.

That count is one pass of the node's only search, ``locate``, which
runs two passes straight through.  Pass 1 counts the sketches below
sk(x) and picks the stored key sharing x's longest bit prefix; unless
that key is x, x's bits below the fall-off point are forced to ones or
zeros and pass 2 sketches and counts that word once, which gives the
exact rank.  ``rank`` wraps it, and a caller that
wants to see pass 1 passes a ``trace`` dict, which receives the sketch,
the survivor word, the count, the selected key and the word ops charged
so far (the ``--demo`` walkthrough and ``scripts/node_anatomy.py`` read
it).  Sketches of arbitrary words, for inspection, come from the
scheme's own evaluator, ``SketchScheme.sketch``.

The packed word may be wider than the key word (t blocks of
padded-length+1 bits each); it always fits the 64-bit machine word,
which bounds the node capacity at 8 keys.

Nodes are immutable between mutations, which the owning tree makes by
splicing ``keys`` and calling ``_invalidate()``, which empties the one
state slot.  The next query rebuilds it as one tuple (scheme, packed word
and packing layout); the rebuild is idempotent, so a racing pair of
readers would simply compute the same state twice.
"""

from __future__ import annotations

from functools import lru_cache

from .counters import OpCounters
from .sketch import MULTIPLICATIVE, STRATEGIES, _scheme_cached
from .trie import DuplicateKey
from .wordops import WIDTHS, check_word

MACHINE_WIDTH = 64
# cap blocks of at most cap bits each must fit the machine word
CAP_LIMIT = 8


class NodeError(ValueError):
    """Base error for node operations."""


class CapacityExceeded(NodeError):
    """More keys than the node capacity allows."""


@lru_cache(maxsize=None)
def _layout(plen: int, t: int) -> tuple:
    """Packing arithmetic for t blocks of plen payload bits: (plen, block,
    separator bit, payload mask, bit 0 of each block, separator of each
    block, word bits).  It depends on nothing else and holds no search
    result, so clearing the sketch caches leaves it nothing to keep."""
    block = plen + 1
    word_bits = t * block
    unit = ((1 << word_bits) - 1) // ((1 << block) - 1)
    return plen, block, 1 << plen, (1 << plen) - 1, unit, unit << plen, word_bits


def _view(i: int) -> property:
    """Read-only view of one field of the node state, rebuilt if stale."""
    return property(lambda self: (self._state or self._ensure())[i])


class FusionNode:
    __slots__ = ("width", "cap", "strategy", "keys", "children",
                 "subtree_size", "_state")

    def __init__(self, keys, *, width: int = 64, cap: int = 7,
                 strategy: str = MULTIPLICATIVE, _sorted: bool = False):
        if _sorted:
            # A fresh sorted list from the tree, whose constructor checked
            # width, cap and strategy once; the node keeps the list.
            ks = keys
        else:
            if width not in WIDTHS:
                raise NodeError(f"unsupported width {width!r}")
            if not 1 <= cap <= CAP_LIMIT:
                raise CapacityExceeded(
                    f"cap {cap} outside [1, {CAP_LIMIT}] (cap*cap must fit {MACHINE_WIDTH} bits)")
            if strategy not in STRATEGIES:
                raise NodeError(f"unknown sketch strategy {strategy!r}")
            ks = sorted(keys)
            for k in ks:
                check_word(k, width)
            for a, b in zip(ks, ks[1:]):
                if a == b:
                    raise DuplicateKey(f"duplicate key {a}")
        if not ks:
            raise NodeError("a node holds at least one key")
        if len(ks) > cap:
            raise CapacityExceeded(f"{len(ks)} keys exceed cap {cap}")
        self.width = width
        self.cap = cap
        self.strategy = strategy
        self.keys: list[int] = ks
        self.children: list[FusionNode] | None = None
        self.subtree_size = len(ks)
        self._state = None

    # -- lazy materialization --------------------------------------------

    def _ensure(self) -> tuple:
        """Build and store the node state: (multiplier, relevant bits,
        mask, shift, sketch charge, node word, scheme) + ``_layout``."""
        keys = self.keys
        t = len(keys)
        bits = 0  # one bit per branch position: msb(k_i ^ k_i+1)
        prev = keys[0]
        for k in keys[1:]:
            bits |= 1 << ((prev ^ k).bit_length() - 1)
            prev = k
        scheme = _scheme_cached(bits, self.width, self.strategy,
                                MACHINE_WIDTH // t - 1)  # payload bits per block
        layout = _layout(scheme.padded_length, t)
        _, block, sep, lenmask, _, _, _ = layout
        mask, mult, shift = scheme.mask, scheme.multiplier, scheme.shift
        sk_bits = scheme.relevant_bits
        word = 0
        if mult is not None:
            for k in keys:
                word = (word << block) | sep | ((((k & mask) * mult) >> shift) & lenmask)
            sk_ops = 4  # and, mul, shr, and
        else:
            for k in keys:
                s = 0
                for b in sk_bits:
                    s = (s << 1) | ((k >> b) & 1)
                word = (word << block) | sep | s
            sk_ops = 4 * len(sk_bits)  # shl, or, shr, and per bit
        self._state = st = (mult, sk_bits, mask, shift, sk_ops, word, scheme) + layout
        return st

    def _invalidate(self) -> None:
        self._state = None

    # read-only views of the state
    _node_word, _scheme, _plen, _block = map(_view, (5, 6, 7, 8))
    _unit, _top_mask = map(_view, (11, 12))

    # -- the packed rank ---------------------------------------------------

    def rank(self, x: int, ops: OpCounters | None = None) -> int:
        """Number of stored keys <= x, in O(1) word ops (see locate)."""
        check_word(x, self.width)
        if ops is None:
            ops = OpCounters()
        i = self.locate(x, ops)[0]
        if i:
            ops.key_compares -= 1  # locate's membership compare; rank makes none
        return i

    def locate(self, x: int, ops: OpCounters, trace: dict | None = None):
        """(number of stored keys <= x, whether x is stored here).

        Two straight-line passes, each one sketch and one survivor count.
        Pass 1 sketches x, subtracts the replicated query 0 sk(x) from
        the node word and counts the separators that borrowed: c keys
        sketch below x.  The key x shares its longest bit prefix with is
        keys[c] or keys[c - 1] (whichever differs from x lower down); if
        keys[c] is x itself, x is stored here.  Otherwise the most
        significant bit where x and that key s differ marks where x
        falls off the keys' trie: x > s exactly when x has a 1 there.
        Pass 2 sketches x with the bits from there down forced to ones
        (x > s), and counts the blocks up to and including that sketch,
        unless it is all ones and no block can exceed it; or forced to
        zeros, and counts the blocks below it.  Each exit adds its
        word-op charge to ``ops`` once.

        A ``trace`` dict, if given, receives pass 1's values: ``sketch``,
        ``survivors`` (the masked difference word), ``count`` (c),
        ``selected`` (the longest-prefix key) and ``word_ops`` (the
        sketch-and-count charge).
        """
        st = self._state
        if st is None:
            st = self._ensure()
        keys = self.keys
        t = len(keys)
        if t == 1:  # zero-length sketches always tie: one key compare
            k = keys[0]
            if trace is not None:
                trace.update(sketch=0, survivors=1, count=0, selected=k, word_ops=0)
            if k <= x:
                ops.key_compares += 2  # ... plus the membership compare
                return 1, k == x
            ops.key_compares += 1
            return 0, False
        (mult, sk_bits, sk_mask, sk_shift, sk_ops, node_word, _, _, block, _,
         lenmask, unit, top_mask, word_bits) = st
        # pass 1: sketch x, then replicate, subtract, mask and zero test
        # (4 ops); floor-lg, bit offset and block divide (3 more) if any
        # separator survives
        if mult is not None:
            q = (((x & sk_mask) * mult) >> sk_shift) & lenmask
        else:
            q = 0
            for b in sk_bits:
                q = (q << 1) | ((x >> b) & 1)
        survivors = (node_word - q * unit) & top_mask
        if survivors:
            c = (word_bits - survivors.bit_length()) // block
            w = sk_ops + 7
        else:
            c = t
            w = sk_ops + 4
        if trace is not None:  # selected stays x if x is stored here
            trace.update(sketch=q, survivors=survivors, count=c, selected=x,
                         word_ops=w)
        if c == t:
            s = keys[t - 1]
            kc = 0
        else:
            s = keys[c]
            if s == x:
                ops.word_ops += w
                ops.key_compares += 2  # keys[c] == x, then the membership compare
                return c + 1, True
            kc = 1
            if c:
                w += 3  # two xors and their comparison
                lo = keys[c - 1]
                # comparing the xor values compares the differing-bit positions
                if (x ^ lo) < (x ^ s):
                    s = lo
        if trace is not None:
            trace["selected"] = s
        # xor, floor-lg, shift, bit test; shl, add, sub, or/and-not: 8 ops
        # (clearing bits n-1..0 is done here as a shift pair, same word)
        n = (x ^ s).bit_length()
        up = x > s
        y = x | ((1 << n) - 1) if up else x >> n << n
        # pass 2: sketch y; going up, a saturation test (1 op) and q + 1
        # (1 more) to count the blocks <= sk(y)
        if mult is not None:
            q = (((y & sk_mask) * mult) >> sk_shift) & lenmask
        else:
            q = 0
            for b in sk_bits:
                q = (q << 1) | ((y >> b) & 1)
        if up:
            if q == lenmask:  # no block sketch exceeds an all-ones window
                ops.word_ops += w + 8 + sk_ops + 1
                ops.key_compares += kc + 1  # ... plus the membership compare
                return t, False
            q += 1
            w += 2
        survivors = (node_word - q * unit) & top_mask
        if survivors:
            c = (word_bits - survivors.bit_length()) // block
            ops.word_ops += w + 8 + sk_ops + 7
        else:
            c = t
            ops.word_ops += w + 8 + sk_ops + 4
        ops.key_compares += kc + 1 if c else kc  # ... plus the membership compare
        return c, False

    # -- introspection -----------------------------------------------------

    scheme, node_word, block_size = _scheme, _node_word, _block

    @property
    def word_width(self) -> int:
        """Standard width of the packed word (may exceed the key width)."""
        word_bits = self.block_size * len(self.keys)
        return next(w for w in WIDTHS if word_bits <= w)

    def sketch_of(self, x: int) -> int:
        """Sketch of an arbitrary word under this node's scheme."""
        check_word(x, self.width)
        return self.scheme.sketch(x)

    def sketches(self) -> list[int]:
        return [self.scheme.sketch(k) for k in self.keys]

    def dump(self) -> str:
        """Multi-line debug text: keys, relevant bits, sketches, packed word."""
        sch = self._scheme
        t = len(self.keys)
        plen = self._plen
        lines = [
            f"{t} key(s), key width {self.width}, sketch strategy {sch.strategy}"
            + (" (fallback from multiplicative)" if sch.fallback else ""),
            "relevant bits: " + (" ".join(f"b{b}" for b in sch.relevant_bits) or "(none)"),
        ]
        if sch.strategy == MULTIPLICATIVE:
            lines.append(
                f"mask 0x{sch.mask:x}, multiplier 0x{sch.multiplier:x}, "
                f"shift {sch.shift}, padded length {plen}"
            )
        else:
            lines.append(f"mask 0x{sch.mask:x}, per-bit extraction")
        sks = self.sketches()
        for i, (k, sk) in enumerate(zip(self.keys, sks)):
            lines.append(f"  s{i + 1} = {k:0{self.width}b}  sketch {sk:0{max(plen, 1)}b}")
        blocks = " ".join(f"1 {sk:0{plen}b}" if plen else "1" for sk in sks)
        lines.append(
            f"node word = {blocks} = {self._node_word} "
            f"({self.word_width}-bit packing, block size {self._block})"
        )
        return "\n".join(lines)
