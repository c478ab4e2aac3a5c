"""Word-RAM primitives over width-parameterized unsigned integers.

Bit index 0 is the least significant bit.  Every function takes the word
width explicitly (8, 16, 32 or 64 bits), validates its inputs against
that width, and masks results back into range, mimicking a machine that
performs w-bit arithmetic, logic and shifts in constant time.  All
functions are pure; operation counting happens at the call sites that
use them.
"""

from __future__ import annotations

WIDTHS = (8, 16, 32, 64)


class WordError(ValueError):
    """Base error for word-level operations."""


class IndexOutOfWidth(WordError):
    """Bit index outside [0, width)."""


def _check_width(width: int) -> None:
    if width not in WIDTHS:
        raise WordError(f"unsupported word width {width!r}; expected one of {WIDTHS}")


def word_mask(width: int) -> int:
    """All-ones word of the given width."""
    _check_width(width)
    return (1 << width) - 1


def check_word(value: int, width: int) -> int:
    """Validate that value fits the width as an unsigned word; returns it.
    SearchTree.insert, search, rank, predecessor and successor inline its
    accept test (exact int, then range) and call it only when that fails;
    keep them in step."""
    _check_width(width)
    if isinstance(value, bool) or not isinstance(value, int):
        raise WordError(f"word value must be an int, got {type(value).__name__}")
    if value < 0 or value >> width:
        raise WordError(f"value {value} out of range for a {width}-bit word")
    return value


def _check_bit(b: int, width: int) -> None:
    if isinstance(b, bool) or not isinstance(b, int):
        raise WordError(f"bit index must be an int, got {type(b).__name__}")
    if not 0 <= b < width:
        raise IndexOutOfWidth(f"bit index {b} outside [0, {width})")


def clear_low_bits(x: int, b: int, width: int = 64) -> int:
    """x with bits b..0 forced to zero."""
    check_word(x, width)
    _check_bit(b, width)
    return x & ~((1 << (b + 1)) - 1) & word_mask(width)


def set_low_bits(x: int, b: int, width: int = 64) -> int:
    """x with bits b..0 forced to one."""
    check_word(x, width)
    _check_bit(b, width)
    return x | ((1 << (b + 1)) - 1)
