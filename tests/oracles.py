"""Reference implementations the tests check the package against.

Word primitives the package itself never calls: floor-lg (plain and by
de Bruijn multiplication), the differing-bit position, the low-bit mask
and the packed-block masks that a node's query-replication multiplier
and separator mask must equal.  Also the per-bit exact sketch and the
per-pattern order check of a multiplicative sketch constant.  And the
per-call input generator that ``bench.generate`` must reproduce key for
key, and the loop form of ``FusionNode.locate`` that its straight-line
passes must match probe for probe.
"""

import random

from fusionsort.wordops import (WIDTHS, WordError, _check_bit, _check_width,
                                check_word, word_mask)


class ZeroWord(WordError):
    """floor(lg x) requested for x = 0."""


class EqualWords(WordError):
    """Differing-bit position requested for two equal words."""


def msb(x: int, width: int = 64) -> int:
    """Position of the most significant set bit of x, i.e. floor(lg x)."""
    check_word(x, width)
    if x == 0:
        raise ZeroWord("floor(lg 0) is undefined")
    return x.bit_length() - 1


# Portable fallback: isolate the top set bit as a power of two, then map
# 2**k -> k with a de Bruijn multiplication and a per-width lookup table.
_DEBRUIJN_CONST = {
    8: 0x1D,
    16: 0x09AF,
    32: 0x077CB531,
    64: 0x03F79D71B4CB0A89,
}
_DEBRUIJN_SHIFT = {8: 5, 16: 12, 32: 27, 64: 58}


def _debruijn_table(width: int) -> tuple[int, ...]:
    const = _DEBRUIJN_CONST[width]
    shift = _DEBRUIJN_SHIFT[width]
    wm = (1 << width) - 1
    tab = [-1] * width
    for i in range(width):
        tab[((const << i) & wm) >> shift] = i
    return tuple(tab)


_DEBRUIJN_TABLE = {w: _debruijn_table(w) for w in WIDTHS}


def msb_debruijn(x: int, width: int = 64) -> int:
    """Reference floor(lg x) without a hardware bit-length instruction.

    Smears the top bit downward, isolates it, then multiplies by a de
    Bruijn constant so the top log2(width) bits index a lookup table.
    Must agree bit-exactly with msb() for every input.
    """
    check_word(x, width)
    if x == 0:
        raise ZeroWord("floor(lg 0) is undefined")
    s = 1
    while s < width:
        x |= x >> s
        s <<= 1
    x = (x >> 1) + 1  # exactly 2**msb
    idx = ((x * _DEBRUIJN_CONST[width]) & word_mask(width)) >> _DEBRUIJN_SHIFT[width]
    return _DEBRUIJN_TABLE[width][idx]


def delta(s1: int, s2: int, width: int = 64) -> int:
    """Most significant bit position at which two equal-width words differ."""
    check_word(s1, width)
    check_word(s2, width)
    if s1 == s2:
        raise EqualWords(f"words are equal ({s1}); no differing bit")
    return (s1 ^ s2).bit_length() - 1


def trailing_ones_mask(b: int, width: int = 64) -> int:
    """Word with bits b..0 set and all higher bits clear: 2**(b+1) - 1."""
    _check_width(width)
    _check_bit(b, width)
    return (1 << (b + 1)) - 1


def _check_blocks(block_size: int, block_count: int, width: int) -> None:
    _check_width(width)
    if block_size < 1 or block_count < 1:
        raise WordError("block size and count must be at least 1")
    if block_size * block_count > width:
        raise OverflowError(
            f"{block_count} blocks of {block_size} bits exceed a {width}-bit word"
        )


def block_leading_bits_mask(block_size: int, block_count: int, width: int = 64) -> int:
    """Word with the top bit of each of block_count contiguous blocks set.

    For block_size r these are bit positions r-1, 2r-1, 3r-1, ...: the
    separator positions of a packed sketch vector.
    """
    _check_blocks(block_size, block_count, width)
    total = block_size * block_count
    unit = ((1 << total) - 1) // ((1 << block_size) - 1)  # bit 0 of each block
    return unit << (block_size - 1)


def block_low_bits_mask(block_size: int, block_count: int, width: int = 64) -> int:
    """Word with bit 0 of each block set: the query-replication multiplier."""
    _check_blocks(block_size, block_count, width)
    total = block_size * block_count
    return ((1 << total) - 1) // ((1 << block_size) - 1)


def sketch_exact(scheme, x: int) -> int:
    """Relevant bits of x packed contiguously, most significant first."""
    s = 0
    for b in scheme.relevant_bits:
        s = (s << 1) | ((x >> b) & 1)
    return s


def order_preserving(bits_asc, width, mult, shift, plen) -> bool:
    """Per-pattern reference for ``sketch._order_preserving``: pattern p
    sets bit bits_asc[k] where p has bit k, and the padded images of
    p = 0, 1, ... must strictly increase."""
    wm = word_mask(width)
    lenm = (1 << plen) - 1
    prev = -1
    for pattern in range(1 << len(bits_asc)):
        y = 0
        for k, b in enumerate(bits_asc):
            y |= ((pattern >> k) & 1) << b
        img = (((y * mult) & wm) >> shift) & lenm
        if img <= prev:
            return False
        prev = img
    return True


def generate(dist: str, n: int, seed: int, width: int) -> list[int]:
    """Reference for ``bench.generate`` on valid arguments: one Python-level
    ``getrandbits`` or ``randrange`` call per draw."""
    rng = random.Random(f"{seed}:{dist}:{width}:{n}")
    if dist == "uniform":
        return [rng.getrandbits(width) for _ in range(n)]
    if dist in ("sorted", "reverse"):
        if width < 63:
            vals = sorted(rng.sample(range(1 << width), n))
        else:
            seen: set[int] = set()
            while len(seen) < n:
                seen.add(rng.getrandbits(width))
            vals = sorted(seen)
        return vals if dist == "sorted" else vals[::-1]
    if dist == "clustered":
        wm = (1 << width) - 1
        jitter = max(1, width // 4)
        centers = [rng.getrandbits(width) for _ in range(max(1, n // 1000))]
        return [(rng.choice(centers) + rng.getrandbits(jitter)) & wm
                for _ in range(n)]
    universe = max(1, -(-n // 10))
    pool = [rng.getrandbits(width) for _ in range(universe)]
    return [pool[rng.randrange(universe)] for _ in range(n)]


def locate(node, x: int, ops, trace: dict | None = None):
    """Reference for ``FusionNode.locate``: the same two passes as one
    loop, sketch and count written once and charged by running sums.
    Must agree with it on the answer, both charges and every trace field."""
    st = node._state
    if st is None:
        st = node._ensure()
    keys = node.keys
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
    y = x
    up = None  # pass 1; pass 2 sets it to x's bit at the fall-off point
    w = kc = 0
    while True:
        if mult is not None:
            q = (((y & sk_mask) * mult) >> sk_shift) & lenmask
        else:
            q = 0
            for b in sk_bits:
                q = (q << 1) | ((y >> b) & 1)
        w += sk_ops
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
