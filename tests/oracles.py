"""Reference implementations the tests check the package against.

Word primitives the package itself never calls: floor-lg (plain and by
de Bruijn multiplication), the differing-bit position, the low-bit mask
and the packed-block masks that a node's query-replication multiplier
and separator mask must equal.  Also the per-bit exact sketch.
"""

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
