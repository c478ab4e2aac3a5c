"""Packed-sketch node: constant-word-op in-node rank over up to cap keys.

A node of t sorted keys packs one separator-marked sketch per key into a
single machine word,

    node_word = 1 sk(s1) | 1 sk(s2) | ... | 1 sk(st)

with s1 in the most significant block.  Subtracting the replicated query
word 0 sk(x) | ... | 0 sk(x) borrows out of exactly the separators whose
block sketch is smaller than sk(x); masking the separator positions and
taking floor(lg) of the survivor word therefore counts the node sketches
below sk(x) in a number of word operations that does not depend on t.

That count is one pass of the node's only search, ``locate``.  Pass 1
counts the sketches below sk(x) and picks the stored key sharing x's
longest bit prefix; unless that key is x, pass 2 repeats the same sketch
and count on x with its bits below the fall-off point forced to ones or
zeros, which gives the exact rank.  ``rank`` wraps it, and a caller that
wants to see pass 1 passes a ``trace`` dict, which receives the sketch,
the survivor word, the count, the selected key and the word ops charged
so far (the ``--demo`` walkthrough and ``scripts/node_anatomy.py`` read
it).  Sketches of arbitrary words, for inspection, come from the
scheme's own evaluator, ``SketchScheme.sketch``.

The packed word may be wider than the key word (t blocks of
padded-length+1 bits each); it always fits the 64-bit machine word,
which bounds the node capacity at 8 keys.

Nodes are immutable between mutations, which the owning tree makes by
splicing ``keys`` and calling ``_invalidate()``.  The sketch scheme and
packed word are materialized lazily on first query after a mutation; the
rebuild is idempotent, so a racing pair of readers would simply compute
the same state twice.
"""

from __future__ import annotations

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


class FusionNode:
    __slots__ = (
        "width", "cap", "strategy", "keys", "children", "subtree_size",
        "_scheme", "_plen", "_block", "_node_word", "_unit",
        "_top_mask", "_key_mask", "_locate_state",
    )

    def __init__(self, keys, *, width: int = 64, cap: int = 7,
                 strategy: str = MULTIPLICATIVE, _sorted: bool = False):
        if width not in WIDTHS:
            raise NodeError(f"unsupported width {width!r}")
        if not 1 <= cap <= CAP_LIMIT:
            raise CapacityExceeded(
                f"cap {cap} outside [1, {CAP_LIMIT}] (cap*cap must fit {MACHINE_WIDTH} bits)")
        if strategy not in STRATEGIES:
            raise NodeError(f"unknown sketch strategy {strategy!r}")
        if _sorted:
            ks = keys
        else:
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
        self.keys: list[int] = list(ks)
        self.children: list[FusionNode] | None = None
        self.subtree_size = len(self.keys)
        self._key_mask = (1 << width) - 1
        self._scheme = None

    # -- lazy materialization --------------------------------------------

    def _ensure(self) -> None:
        keys = self.keys
        t = len(keys)
        if t > 1:
            bits = set()
            prev = keys[0]
            for k in keys[1:]:
                bits.add((prev ^ k).bit_length() - 1)
                prev = k
            bits_desc = tuple(sorted(bits, reverse=True))
        else:
            bits_desc = ()
        budget = MACHINE_WIDTH // t - 1  # payload bits per block
        scheme = _scheme_cached(bits_desc, self.width, self.strategy, budget)
        plen = scheme.padded_length
        block = plen + 1
        word_bits = t * block
        sep = 1 << plen
        lenmask = sep - 1
        mask, mult, shift = scheme.mask, scheme.multiplier, scheme.shift
        sk_bits = scheme.relevant_bits
        km = self._key_mask
        word = 0
        if mult is not None:
            for k in keys:
                word = (word << block) | sep | (
                    ((((k & mask) * mult) & km) >> shift) & lenmask)
        else:
            for k in keys:
                s = 0
                for b in sk_bits:
                    s = (s << 1) | ((k >> b) & 1)
                word = (word << block) | sep | s
        unit = ((1 << word_bits) - 1) // ((1 << block) - 1)  # bit 0 of each block
        top_mask = unit << plen
        self._plen = plen
        self._block = block
        self._node_word = word
        self._unit = unit
        self._top_mask = top_mask
        # what locate reads, unpacked in one step
        self._locate_state = (mult, sk_bits, mask, shift, km, lenmask, word,
                              unit, top_mask, word_bits, block)
        self._scheme = scheme

    def _invalidate(self) -> None:
        self._scheme = None

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

        Pass 1 sketches x, subtracts the replicated query 0 sk(x) from
        the node word and counts the separators that borrowed: c keys
        sketch below x.  The key x shares its longest bit prefix with is
        keys[c] or keys[c - 1] (whichever differs from x lower down); if
        keys[c] is x itself, x is stored here.  Otherwise the most
        significant bit b where x and that key differ marks where x
        falls off the keys' trie: pass 2 forces bits b..0 of x to ones
        (x has a 1 at b) and counts through the predecessor, or to zeros
        and counts up to the successor.  The sketch and the survivor
        count are written once and run in both passes.

        A ``trace`` dict, if given, receives pass 1's values: ``sketch``,
        ``survivors`` (the masked difference word), ``count`` (c),
        ``selected`` (the longest-prefix key) and ``word_ops`` (the
        sketch-and-count charge).
        """
        if self._scheme is None:
            self._ensure()
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
        (mult, sk_bits, sk_mask, sk_shift, key_mask, lenmask, node_word, unit,
         top_mask, word_bits, block) = self._locate_state
        y = x
        up = None  # pass 1; pass 2 sets it to x's bit at the fall-off point
        w = kc = 0
        while True:
            if mult is not None:
                q = ((((y & sk_mask) * mult) & key_mask) >> sk_shift) & lenmask
                w += 4  # and, mul, shr, and
            else:
                q = 0
                for b in sk_bits:
                    q = (q << 1) | ((y >> b) & 1)
                w += 4 * len(sk_bits)  # shl, or, shr, and per bit
            if up:
                w += 1  # saturation test
                if q == lenmask:
                    c = t  # no block sketch exceeds an all-ones window
                    break
                w += 1  # q + 1: count the blocks <= sk(y)
                q += 1
            # replicate, subtract, mask and zero test: 4 ops; floor-lg, bit
            # offset and block divide: 3 more if any separator survives
            survivors = (node_word - q * unit) & top_mask
            if survivors:
                c = (word_bits - survivors.bit_length()) // block
                w += 7
            else:
                c = t
                w += 4
            if up is not None:
                break
            if trace is not None:  # selected stays x if x is stored here
                trace.update(sketch=q, survivors=survivors, count=c, selected=x,
                             word_ops=w)
            if c == t:
                s = keys[t - 1]
            else:
                s = keys[c]
                kc = 1
                if s == x:
                    ops.word_ops += w
                    ops.key_compares += 2  # keys[c] == x, then the membership compare
                    return c + 1, True
                if c:
                    w += 3  # two xors and their comparison
                    lo = keys[c - 1]
                    # comparing the xor values compares the differing-bit positions
                    if (x ^ lo) < (x ^ s):
                        s = lo
            if trace is not None:
                trace["selected"] = s
            b = (x ^ s).bit_length() - 1
            low = (1 << (b + 1)) - 1
            up = (x >> b) & 1
            y = x | low if up else x & ~low
            w += 8  # xor, floor-lg, shift, bit test; shl, add, sub, or/and-not
        ops.word_ops += w
        ops.key_compares += kc + 1 if c else kc  # ... plus the membership compare
        return c, False

    # -- introspection -----------------------------------------------------

    @property
    def scheme(self):
        if self._scheme is None:
            self._ensure()
        return self._scheme

    @property
    def node_word(self) -> int:
        if self._scheme is None:
            self._ensure()
        return self._node_word

    @property
    def block_size(self) -> int:
        if self._scheme is None:
            self._ensure()
        return self._block

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
        if self._scheme is None:
            self._ensure()
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
