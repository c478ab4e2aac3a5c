"""Word-RAM words: width-parameterized unsigned integers.

Bit index 0 is the least significant bit.  A word of width w (8, 16, 32
or 64 bits) is an int in [0, 2**w); ``check_word`` validates one against
its width.  Operation counting happens at the call sites that use words.
"""

from __future__ import annotations

WIDTHS = (8, 16, 32, 64)


class WordError(ValueError):
    """Base error for word-level operations."""


def _check_width(width: int) -> None:
    if width not in WIDTHS:
        raise WordError(f"unsupported word width {width!r}; expected one of {WIDTHS}")


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
