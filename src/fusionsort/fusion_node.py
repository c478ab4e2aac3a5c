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
runs at most two passes straight through.  Pass 1 counts the sketches
below sk(x) and picks the stored key s sharing x's longest bit prefix.
Unless s is x, the keys that agree with x above the fall-off bit
p = msb(x ^ s) form one run around s, and x lies beyond that run's lower
edge (x < s) or its upper edge (x > s): a key of the run with x's bit at
p would share a longer prefix with x than s does, and every key outside
it compares with x as it compares with s.  When s's neighbour on x's
side branches from s above p, s itself is that edge and the rank is
known: the neighbour exit, charged 4 word ops (xor, direction test,
neighbour xor and its compare), with a missing neighbour standing for
one that branches higher.  It reads no sketch, so exact nodes take it
too; in a uniform sort it ends about 90 % of the visits to nodes of two
or more keys.  Otherwise, when the run reaches the node's last key
(going up) or its first (going down), the rank is t or 0: the far-end
exit, 2 word ops more (the far key's xor and its compare).  Only a run
that ends inside the node is left: x's bits below p are forced to ones
or zeros and pass 2 sketches and counts that word once, which gives the
exact rank.  ``rank`` wraps it, and a caller that wants to see pass 1
passes a ``trace`` dict, which receives the sketch, the survivor word,
the count, the selected key and the word ops charged so far (the
``--demo`` walkthrough and ``scripts/node_anatomy.py`` read it).
``SketchScheme.sketch`` is the one per-bit (exact) evaluator, which exact
nodes call; the multiplicative formula, run by nearly every visit, is
inlined in ``_ensure`` and both passes, where a method call costs most.
The passes have two forms of it.  A scheme with multiplier 1 (its bits
already fit the window) sketches as ``(x & mask) >> shift``, charged 2
word ops, since the identity multiply and the window mask change
nothing; any other multiplier runs and is charged all four (and, mul,
shr, and).  ``_ensure`` packs with the four-op form alone: it gives the
same bits, and a rebuild is not charged.

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


def _packing(t: int, plen: int) -> tuple:
    """Packing arithmetic for t blocks of plen payload bits: (t, block,
    payload mask, bit 0 of each block, separator of each block, word
    bits)."""
    block = plen + 1
    word_bits = t * block
    unit = ((1 << word_bits) - 1) // ((1 << block) - 1)
    return t, block, (1 << plen) - 1, unit, unit << plen, word_bits


# _LAYOUTS[t][plen] for every node size t and every padded length its
# scheme may take, 0..MACHINE_WIDTH // t - 1 (the budget _ensure passes);
# no node holds 0 keys, so row 0 is empty.
_LAYOUTS = ((),) + tuple(tuple(_packing(t, plen) for plen in range(MACHINE_WIDTH // t))
                         for t in range(1, CAP_LIMIT + 1))


def _view(i: int) -> property:
    """Read-only view of one field of the node state, rebuilt if stale."""
    return property(lambda self: (self._state or self._ensure())[i])


class FusionNode:
    __slots__ = ("width", "strategy", "keys", "children",
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
        self.strategy = strategy
        self.keys: list[int] = ks
        self.children: list[FusionNode] | None = None
        self.subtree_size = len(ks)
        self._state = None

    # -- lazy materialization --------------------------------------------

    def _ensure(self) -> tuple:
        """Build and store the node state: (multiplier, mask, shift, sketch
        charge, node word, scheme) + its ``_LAYOUTS`` entry; one OR sets the
        separators.  The sketch charge is what one sketch costs a visit: 2
        word ops on a single-shift scheme, 4 on a multiplied one and 4 per
        relevant bit on an exact one."""
        keys = self.keys
        t = len(keys)
        bits = 0  # one bit per branch position: msb(k_i ^ k_i+1)
        prev = keys[0]
        for k in keys[1:]:
            bits |= 1 << ((prev ^ k).bit_length() - 1)
            prev = k
        scheme = _scheme_cached(bits, self.width, self.strategy,
                                MACHINE_WIDTH // t - 1)  # payload bits per block
        layout = _LAYOUTS[t][scheme.padded_length]
        _, block, lenmask, _, top_mask, _ = layout
        mask, mult, shift = scheme.mask, scheme.multiplier, scheme.shift
        word = 0
        if mult is not None:
            for k in keys:
                word = (word << block) | ((((k & mask) * mult) >> shift) & lenmask)
            # a visit runs and, shr on a single shift, else and, mul, shr, and
            sk_ops = 2 if mult == 1 else 4
        else:
            for sk in map(scheme.sketch, keys):
                word = (word << block) | sk
            sk_ops = 4 * len(scheme.relevant_bits)  # shl, or, shr, and per bit
        self._state = st = (mult, mask, shift, sk_ops, word | top_mask, scheme) + layout
        return st

    def _invalidate(self) -> None:
        self._state = None

    # read-only views of the state
    node_word, scheme, block_size, _unit, _top_mask = map(_view, (4, 5, 7, 9, 10))

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

        At most two straight-line passes, each one sketch and one
        survivor count.  Pass 1 sketches x, subtracts the replicated
        query 0 sk(x) from the node word and counts the separators that
        borrowed: c keys sketch below x.  The key x shares its longest
        bit prefix with is s = keys[j], j = c or c - 1 (whichever differs
        from x lower down; t - 1 if c == t); if keys[c] is x itself, x is
        stored here.  Otherwise the most significant bit p where x and s
        differ marks where x falls off the keys' trie: x > s exactly when
        x has a 1 there.  The keys sharing x's prefix above p are a run
        around s, each with s's bit at p, so x ranks at the run's lower
        edge going down and past its upper edge going up.  Neighbour
        exit: if j is 0 or keys[j - 1] ^ s > x ^ s (down), or j is
        t - 1 or keys[j + 1] ^ s > x ^ s (up), that edge is s and the
        rank is j or j + 1, for 4 word ops (xor, direction test,
        neighbour xor and its compare).  Far-end exit: if keys[t - 1] ^ s
        < x ^ s (up), or keys[0] ^ s < x ^ s (down), the run reaches that
        key and the rank is t or 0, for 2 word ops more (the far key's
        xor and its compare).  Else the rank lies strictly inside the
        node: pass 2 sketches x with the bits from p down forced to ones
        (x > s) and counts the blocks up to and including that sketch, or
        forced to zeros and counts the blocks below it; the far key's
        block always survives the count.  The fall-off block costs 8 word
        ops on top of the two tests' 4.  Each exit adds its word-op
        charge to ``ops`` once.

        A ``trace`` dict, if given, receives pass 1's values: ``sketch``,
        ``survivors`` (the masked difference word), ``count`` (c),
        ``selected`` (the longest-prefix key) and ``word_ops`` (the
        sketch-and-count charge).
        """
        (mult, sk_mask, sk_shift, sk_ops, node_word, scheme, t, block,
         lenmask, unit, top_mask, word_bits) = self._state or self._ensure()
        keys = self.keys
        if t == 1:  # zero-length sketches always tie: one key compare
            k = keys[0]
            if trace is not None:
                trace.update(sketch=0, survivors=1, count=0, selected=k, word_ops=0)
            if k <= x:
                ops.key_compares += 2  # ... plus the membership compare
                return 1, k == x
            ops.key_compares += 1
            return 0, False
        # pass 1: sketch x, then replicate, subtract, mask and zero test
        # (4 ops); floor-lg, bit offset and block divide (3 more) if any
        # separator survives
        if mult == 1:
            q = (x & sk_mask) >> sk_shift
        elif mult is not None:
            q = (((x & sk_mask) * mult) >> sk_shift) & lenmask
        else:
            q = scheme.sketch(x)
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
            j = t - 1
            kc = 0
        else:
            j = c
            s = keys[c]
            if s == x:
                ops.word_ops += w
                ops.key_compares += 2  # keys[c] == x, then the membership compare
                return c + 1, True
            kc = 1
            if c:
                w += 3  # two xors and their comparison
                # comparing the xor values compares the differing-bit positions
                if (x ^ keys[c - 1]) < (x ^ s):
                    j = c - 1
        s = keys[j]
        if trace is not None:
            trace["selected"] = s
        # neighbour exit (see above): xor, direction test, neighbour xor
        # and its compare, 4 ops; a missing neighbour is charged the same
        d = x ^ s
        up = x > s
        if up:
            if j == t - 1 or (keys[j + 1] ^ s) > d:
                ops.word_ops += w + 4
                ops.key_compares += kc + 1  # ... plus the membership compare
                return j + 1, False
            # far-end exit: the run around s reaches the last key
            if (keys[t - 1] ^ s) < d:
                ops.word_ops += w + 6
                ops.key_compares += kc + 1  # ... plus the membership compare
                return t, False
        elif not j or (keys[j - 1] ^ s) > d:
            ops.word_ops += w + 4
            ops.key_compares += kc + 1 if j else kc  # ... plus the membership compare
            return j, False
        elif (keys[0] ^ s) < d:  # far-end exit: the run reaches the first key
            ops.word_ops += w + 6
            ops.key_compares += kc
            return 0, False
        # the fall-off block: xor, floor-lg, shift, bit test; shl, add,
        # sub, or/and-not (8 ops, the xor and direction test above among
        # them), plus the neighbour and far-end tests' 2 each: 12 ops
        # (clearing bits n-1..0 is done here as a shift pair, same word)
        n = d.bit_length()
        y = x | ((1 << n) - 1) if up else x >> n << n
        # pass 2: sketch y; going up, q + 1 (1 op) counts the blocks <=
        # sk(y).  The far key's block lies beyond sk(y), so a separator
        # survives: replicate, subtract and mask, then floor-lg, bit offset
        # and block divide, with no zero test (6 ops)
        if mult == 1:
            q = (y & sk_mask) >> sk_shift
        elif mult is not None:
            q = (((y & sk_mask) * mult) >> sk_shift) & lenmask
        else:
            q = scheme.sketch(y)
        if up:
            q += 1
            w += 1
        survivors = (node_word - q * unit) & top_mask
        ops.word_ops += w + 12 + sk_ops + 6
        ops.key_compares += kc + 1  # ... plus the membership compare
        return (word_bits - survivors.bit_length()) // block, False

    # -- introspection -----------------------------------------------------

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
        sch = self.scheme
        t = len(self.keys)
        plen = sch.padded_length
        lines = [
            f"{t} key(s), key width {self.width}, sketch strategy {sch.strategy}"
            + (" (fallback from multiplicative)" if sch.fallback else ""),
            "relevant bits: " + (" ".join(f"b{p}" for p in sch.relevant_bits) or "(none)"),
        ]
        if sch.strategy == MULTIPLICATIVE:
            form, charge = (("single shift: and, shr", 2) if sch.multiplier == 1
                            else ("and, mul, shr, and", 4))
            lines += [
                f"mask 0x{sch.mask:x}, multiplier 0x{sch.multiplier:x}, "
                f"shift {sch.shift}, padded length {plen}",
                f"sketch form: {form} ({charge} word ops per sketch)",
            ]
        else:
            lines.append(f"mask 0x{sch.mask:x}, per-bit extraction")
        sks = self.sketches()
        for i, (k, sk) in enumerate(zip(self.keys, sks)):
            lines.append(f"  s{i + 1} = {k:0{self.width}b}  sketch {sk:0{max(plen, 1)}b}")
        blocks = " ".join(f"1 {sk:0{plen}b}" if plen else "1" for sk in sks)
        lines.append(
            f"node word = {blocks} = {self.node_word} "
            f"({self.word_width}-bit packing, block size {self.block_size})"
        )
        return "\n".join(lines)
