"""Packed-sketch node: constant-word-op in-node rank over up to cap keys.

A node of t sorted keys packs one separator-marked sketch per key into a
single machine word,

    node_word = 1 sk(s1) | 1 sk(s2) | ... | 1 sk(st)

with s1 in the most significant block.  Subtracting the replicated query
word 0 sk(x) | ... | 0 sk(x) borrows out of exactly the separators whose
block sketch is smaller than sk(x); masking the separator positions and
taking floor(lg) of the survivor word therefore counts the node sketches
below sk(x) in a number of word operations that does not depend on t.

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
        "_scheme", "_plen", "_block", "_word_bits", "_word_width",
        "_node_word", "_unit", "_top_mask",
        "_sk_mask", "_sk_mult", "_sk_shift", "_sk_lenmask", "_sk_bits",
        "_key_mask",
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
        if word_bits <= 8:
            word_width = 8
        elif word_bits <= 16:
            word_width = 16
        elif word_bits <= 32:
            word_width = 32
        else:
            word_width = 64
        sep = 1 << plen
        lenmask = sep - 1
        word = 0
        if scheme.strategy == MULTIPLICATIVE:
            mask, mult, shift = scheme.mask, scheme.multiplier, scheme.shift
            km = self._key_mask
            self._sk_mask = mask
            self._sk_mult = mult
            self._sk_shift = shift
            self._sk_bits = None
            for k in keys:
                word = (word << block) | sep | (
                    ((((k & mask) * mult) & km) >> shift) & lenmask)
        else:
            sk_bits = scheme.relevant_bits
            self._sk_mask = scheme.mask
            self._sk_mult = None
            self._sk_shift = 0
            self._sk_bits = sk_bits
            for k in keys:
                s = 0
                for b in sk_bits:
                    s = (s << 1) | ((k >> b) & 1)
                word = (word << block) | sep | s
        self._sk_lenmask = lenmask
        self._plen = plen
        self._block = block
        self._word_bits = word_bits
        self._word_width = word_width
        self._node_word = word
        unit = ((1 << word_bits) - 1) // ((1 << block) - 1)  # bit 0 of each block
        self._unit = unit
        self._top_mask = unit << plen
        self._scheme = scheme

    def _invalidate(self) -> None:
        self._scheme = None

    # -- sketch evaluation -------------------------------------------------

    def _sketch(self, x: int, ops: OpCounters | None) -> int:
        if self._sk_mult is not None:
            if ops is not None:
                ops.word_ops += 4  # and, mul, shr, and
            return ((((x & self._sk_mask) * self._sk_mult) & self._key_mask)
                    >> self._sk_shift) & self._sk_lenmask
        bits = self._sk_bits
        if ops is not None:
            ops.word_ops += 4 * len(bits)  # shl, or, shr, and per bit
        s = 0
        for b in bits:
            s = (s << 1) | ((x >> b) & 1)
        return s

    def sketch_of(self, x: int, ops: OpCounters | None = None) -> int:
        """Sketch of an arbitrary word under this node's scheme."""
        check_word(x, self.width)
        if self._scheme is None:
            self._ensure()
        return self._sketch(x, ops)

    # -- packed comparison ---------------------------------------------------

    def make_query_word(self, x: int, ops: OpCounters | None = None) -> int:
        """0 sk(x) replicated into every block, via one multiplication."""
        check_word(x, self.width)
        if self._scheme is None:
            self._ensure()
        q = self._sketch(x, ops)
        if ops is not None:
            ops.word_ops += 1
        return q * self._unit

    def _count_lt(self, q: int, ops: OpCounters | None) -> int:
        """Number of node sketches strictly below the sketch value q."""
        if ops is not None:
            ops.word_ops += 4  # replicate, subtract, mask, zero test
        survivors = (self._node_word - q * self._unit) & self._top_mask
        if survivors == 0:
            return len(self.keys)
        if ops is not None:
            ops.word_ops += 3  # floor-lg, bit offset, block divide
        top = survivors.bit_length() - 1
        return (self._word_bits - 1 - top) // self._block

    def parallel_compare(self, x: int, ops: OpCounters | None = None) -> int:
        """Index of the first key whose sketch is >= sk(x); t if none.

        Equals |{i : sk(keys[i]) < sk(x)}| because the packed sketches
        are strictly increasing.
        """
        check_word(x, self.width)
        if self._scheme is None:
            self._ensure()
        if len(self.keys) == 1:
            return 0  # zero-length sketches always tie
        return self._count_lt(self._sketch(x, ops), ops)

    def node_trs(self, x: int, ops: OpCounters | None = None) -> int:
        """The stored key sharing the longest bit prefix with x.

        The packed comparison narrows the candidates to the two keys
        whose sketches bracket sk(x); of those, the one with the longer
        common prefix is the key x falls off the key set's trie against,
        which is what the second rank pass needs.
        """
        check_word(x, self.width)
        if self._scheme is None:
            self._ensure()
        keys = self.keys
        t = len(keys)
        if t == 1:
            return keys[0]
        pc = self._count_lt(self._sketch(x, ops), ops)
        if pc == t:
            return keys[t - 1]
        hi = keys[pc]
        if ops is not None:
            ops.key_compares += 1
        if hi == x or pc == 0:
            return hi
        if ops is not None:
            ops.word_ops += 3  # two xors and their comparison
        lo = keys[pc - 1]
        # comparing the xor values compares the differing-bit positions
        return lo if (x ^ lo) < (x ^ hi) else hi

    def rank(self, x: int, ops: OpCounters | None = None) -> int:
        """Number of stored keys <= x, in O(1) word ops.

        Pass 1 locates the longest-prefix key s' via the packed
        comparison (with the two-neighbor refinement of node_trs).  If
        s' != x, the most significant differing bit b marks where x
        falls off the trie: forcing bits b..0 of x all-ones (when x has
        a 1 at b) makes a second packed comparison count through the
        predecessor; forcing them all-zero (when x has a 0) counts up to
        the successor.
        """
        check_word(x, self.width)
        if self._scheme is None:
            self._ensure()
        return self._rank(x, ops)

    def _rank(self, x: int, ops: OpCounters | None) -> int:
        # Fused hot path: same arithmetic and the same charge totals as
        # the helper methods, with the word-op charges batched into one
        # update per call.
        keys = self.keys
        t = len(keys)
        if t == 1:
            if ops is not None:
                ops.key_compares += 1
            return 1 if keys[0] <= x else 0
        mult = self._sk_mult
        lenmask = self._sk_lenmask
        sk_mask = self._sk_mask
        sk_shift = self._sk_shift
        key_mask = self._key_mask
        word_top = self._word_bits - 1
        block = self._block
        if mult is not None:
            q = ((((x & sk_mask) * mult) & key_mask) >> sk_shift) & lenmask
            w = 4  # and, mul, shr, and
        else:
            sk_bits = self._sk_bits
            q = 0
            for b in sk_bits:
                q = (q << 1) | ((x >> b) & 1)
            w = 4 * len(sk_bits)
        node_word = self._node_word
        unit = self._unit
        top_mask = self._top_mask
        kc = 0
        survivors = (node_word - q * unit) & top_mask
        if survivors == 0:
            pc = t
            w += 4  # replicate, subtract, mask, zero test
        else:
            pc = (word_top - (survivors.bit_length() - 1)) // block
            w += 7  # ... plus floor-lg, bit offset, block divide
        if pc < t:
            s = keys[pc]
            kc = 1
            if s == x:
                if ops is not None:
                    ops.word_ops += w
                    ops.key_compares += 1
                return pc + 1
            if pc:
                w += 3  # two xors and their comparison
                lo = keys[pc - 1]
                if (x ^ lo) < (x ^ s):
                    s = lo
        else:
            s = keys[t - 1]
        w += 4  # xor, floor-lg, shift, bit test
        b = (x ^ s).bit_length() - 1
        if (x >> b) & 1:
            w += 4  # mask build (shl, add, sub) and or
            x2 = x | ((1 << (b + 1)) - 1)
            if mult is not None:
                q2 = ((((x2 & sk_mask) * mult) & key_mask) >> sk_shift) & lenmask
                w += 4
            else:
                q2 = 0
                for bb in sk_bits:
                    q2 = (q2 << 1) | ((x2 >> bb) & 1)
                w += 4 * len(sk_bits)
            w += 1  # saturation test
            if q2 == lenmask:
                res = t
            else:
                w += 1  # q + 1
                survivors = (node_word - (q2 + 1) * unit) & top_mask
                if survivors == 0:
                    res = t
                    w += 4
                else:
                    res = (word_top - (survivors.bit_length() - 1)) // block
                    w += 7
        else:
            w += 4  # mask build and and-not
            x2 = x & ~((1 << (b + 1)) - 1)
            if mult is not None:
                q2 = ((((x2 & sk_mask) * mult) & key_mask) >> sk_shift) & lenmask
                w += 4
            else:
                q2 = 0
                for bb in sk_bits:
                    q2 = (q2 << 1) | ((x2 >> bb) & 1)
                w += 4 * len(sk_bits)
            survivors = (node_word - q2 * unit) & top_mask
            if survivors == 0:
                res = t
                w += 4
            else:
                res = (word_top - (survivors.bit_length() - 1)) // block
                w += 7
        if ops is not None:
            ops.word_ops += w
            ops.key_compares += kc
        return res

    def locate(self, x: int, ops: OpCounters):
        """(number of stored keys <= x, whether x is stored here): the
        packed rank plus one charged key comparison to test membership."""
        if self._scheme is None:
            self._ensure()
        i = self._rank(x, ops)
        if i:
            ops.key_compares += 1
            return i, self.keys[i - 1] == x
        return 0, False

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
        if self._scheme is None:
            self._ensure()
        return self._word_width

    def sketches(self) -> list[int]:
        if self._scheme is None:
            self._ensure()
        return [self._sketch(k, None) for k in self.keys]

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
        for i, k in enumerate(self.keys):
            sk = self._sketch(k, None)
            lines.append(f"  s{i + 1} = {k:0{self.width}b}  sketch {sk:0{max(plen, 1)}b}")
        blocks = " ".join(
            f"1 {self._sketch(k, None):0{plen}b}" if plen else "1" for k in self.keys
        )
        lines.append(
            f"node word = {blocks} = {self._node_word} "
            f"({self._word_width}-bit packing, block size {self._block})"
        )
        return "\n".join(lines)
