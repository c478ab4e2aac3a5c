"""Order-preserving sketch compression of a key set's relevant bits.

A scheme fixes which bit positions matter (the branch bits of the
owning key set) and how they are extracted from a word:

* ``exact``          -- one masked shift per relevant bit, packed
                        contiguously, most significant relevant bit
                        first;
* ``multiplicative`` -- a single masked multiplication relocates every
                        relevant bit into a short window, possibly with
                        interleaved zero padding.

Both encodings order identically over any words, because the padded
form is a strictly monotone re-spacing of the exact form; that is
verified exhaustively over all relevant-bit patterns when a multiplier
is constructed.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import lru_cache

EXACT = "exact"
MULTIPLICATIVE = "multiplicative"
STRATEGIES = (EXACT, MULTIPLICATIVE)

# DFS step budget for the multiplier search before giving up.
_SEARCH_BUDGET = 200_000


class SketchError(ValueError):
    """Base error for sketch schemes."""


class NoValidMultiplier(SketchError):
    """The bounded multiplier search found no valid constant."""


class SketchScheme(namedtuple(
        "SketchScheme", "width relevant_bits mask strategy padded_length "
        "multiplier shift fallback", defaults=(None, None, False))):
    """Extraction recipe for one key set's relevant bits (descending, and
    one ``mask`` bit each); immutable.

    ``padded_length`` is the number of payload bits a sketch occupies:
    the relevant-bit count for the exact strategy, the (zero-padded)
    window length for the multiplicative one.  ``fallback`` records that
    a multiplicative scheme was requested but could not be built.
    """

    __slots__ = ()

    def sketch(self, x: int) -> int:
        """The sketch of word x: its relevant bits packed contiguously,
        most significant first (exact: the package's one per-bit
        extraction, which exact nodes call), or moved into the padded
        window by one masked multiplication (multiplicative; nodes inline it)."""
        if self.strategy == MULTIPLICATIVE:
            prod = (x & self.mask) * self.multiplier
            return (prod >> self.shift) & ((1 << self.padded_length) - 1)
        s = 0
        for b in self.relevant_bits:
            s = (s << 1) | ((x >> b) & 1)
        return s


def scheme_from_bits(
    relevant_bits,
    width: int,
    strategy: str = MULTIPLICATIVE,
    max_padded_length: int | None = None,
) -> SketchScheme:
    """Build a scheme for the given branch bits (any order, deduplicated)."""
    if strategy not in STRATEGIES:
        raise SketchError(f"unknown strategy {strategy!r}")
    mask = 0
    for b in relevant_bits:
        if not 0 <= b < width:
            raise SketchError(f"relevant bit {b} outside [0, {width})")
        mask |= 1 << b
    return _scheme_cached(mask, width, strategy, max_padded_length)


@lru_cache(maxsize=65536)
def _scheme_cached(
    mask: int, width: int, strategy: str, max_padded_length: int | None,
) -> SketchScheme:
    """Schemes are immutable, so identical bit sets (one mask bit per
    relevant bit) share one instance."""
    bits, rest = [], mask
    while rest:  # peel the top set bit: at most 7 steps for a node
        top = rest.bit_length() - 1
        bits.append(top)
        rest ^= 1 << top
    bits = tuple(bits)
    if not bits or strategy == EXACT:
        return SketchScheme(width, bits, mask, EXACT, len(bits))
    r, low = len(bits), bits[-1]
    lcap = r * r if max_padded_length is None else min(r * r, max_padded_length)
    # _order_preserving tries all 2**r patterns; nodes have <= 7 bits
    found = None if r > 16 else _find_multiplier_cached(
        tuple(b - low for b in reversed(bits)), lcap)
    if found is None:
        logging = sys.modules.get("logging")  # else no handler can exist
        if logging is not None:
            logging.getLogger(__name__).debug(
                "multiplicative sketch fallback: bits=%s width=%d cap=%s",
                bits, width, max_padded_length)
        return SketchScheme(width, bits, mask, EXACT, len(bits), fallback=True)
    mult, shift, plen = found[0], found[1] + low, found[2]  # the shift moves with the bits
    # the window lies inside the word, so no word mask is needed on the
    # product before the shift (sketch, locate and _ensure apply none)
    assert shift + plen <= width, (bits, mult, shift, plen)
    return SketchScheme(width, bits, mask, MULTIPLICATIVE, plen, mult, shift)


def find_multiplier(
    relevant_bits,
    width: int,
    max_padded_length: int | None = None,
) -> tuple[int, int, int]:
    """Constant so that ``((x & mask) * multiplier) >> shift`` is an
    order-preserving image of the relevant bits of x.

    Returns (multiplier, shift, padded_length).  The relevant bits land
    at strictly increasing positions of a window of at most r*r bits
    (tighter if max_padded_length says so); every other term of the
    product is placed where it cannot disturb the window, so no carries
    reach it.  Raises NoValidMultiplier when the bounded search fails.
    The answer is the multiplicative scheme of these bits, so it is
    memoized per bit set, and the search, or its failure, per (gaps,
    window cap).
    """
    scheme = scheme_from_bits(relevant_bits, width, MULTIPLICATIVE, max_padded_length)
    if not scheme.relevant_bits:
        raise SketchError("at least one relevant bit is required")
    if scheme.fallback:
        raise NoValidMultiplier(f"no verified constant for bits {scheme.relevant_bits}")
    return scheme.multiplier, scheme.shift, scheme.padded_length


@lru_cache(maxsize=65536)
def _find_multiplier_cached(gaps: tuple[int, ...], lcap: int):
    """(multiplier, shift, padded_length) for ascending bits with gaps[0]
    == 0 under window cap lcap, or None.  The search reads only the bits'
    differences and its window ends at the top bit, so one entry serves
    every shifted copy at any width, verified with the span as the word.

    Unless one shared shift fits the bits in the window [0, lcap), a
    depth-first search splits them into consecutive runs, one shift
    sigma per run, so each run's image mirrors its spacing there.  A run
    is placed only if no bit b outside it has b + sigma in the window,
    or below it where another run already put a product term (a carry
    could ripple up).  So the last run, holding the top bit at offset
    next_off - 1, has the smallest shift: an earlier run whose first bit
    b_i sits at offset o >= 0 (so -sigma <= b_i) with a smaller shift
    would put the top bit at next_off - 1 - (sigma_last - sigma) < lcap,
    hence top + sigma < 0 and top < b_i, which is impossible.  The
    product offset is then base = top + 1 - next_off (>= 1, as the bits
    span more than lcap), every base + sigma >= 0, and the window ends
    at the top bit.  A repeated shift would have put its run's first bit
    in the window, so the multiplier is a sum of distinct powers."""
    r = len(gaps)
    if lcap < r:
        return None
    span = gaps[-1] + 1
    if span <= lcap:  # one shared shift
        return (1, 0, span) if _order_preserving(gaps, span, 1, 0, span) else None
    result = _place(gaps, lcap, 0, 0, (), frozenset(), _SEARCH_BUDGET)[0]
    return result if result and _order_preserving(gaps, span, *result) else None


def _place(gaps, lcap, i, next_off, sigmas, below, budget):
    """Place the runs from bit i on, the window filled to next_off;
    returns ((multiplier, shift, padded_length) or None, steps left).
    The shifts taken (sigmas) and product terms below the window (below)
    travel down the recursion, so a dead end has nothing to undo."""
    r = len(gaps)
    if i == r:
        base = gaps[-1] + 1 - next_off
        return (sum(1 << (base + sg) for sg in sigmas), base, next_off), budget
    for j in range(r - 1, i - 1, -1):  # longest run first
        gspan = gaps[j] - gaps[i] + 1
        last = lcap - gspan if i else min(0, lcap - gspan)  # run 0 at offset 0
        for o in range(next_off, last + 1):
            budget -= 1
            if budget <= 0:
                return None, budget
            sigma = o - gaps[i]
            fresh: list[int] = []
            for b in gaps[:i] + gaps[j + 1:]:
                p = b + sigma
                if 0 <= p < lcap or p in below:
                    break  # a stray in the window or a collision below it
                if p < 0:
                    fresh.append(p)
            else:
                found, budget = _place(gaps, lcap, j + 1, o + gspan,
                                       sigmas + (sigma,), below.union(fresh), budget)
                if found is not None:
                    return found, budget
    return None, budget


def _order_preserving(bits_asc, width, mult, shift, plen) -> bool:
    """Exhaustive check: padded images of all relevant-bit patterns are
    strictly increasing in the exact-sketch order."""
    assert len(bits_asc) <= 16, "_scheme_cached refuses unverifiable bit counts"
    ys = [0]  # ys[p] sets bits_asc[k] where pattern p has bit k
    for b in bits_asc:
        bit = 1 << b
        ys += [y | bit for y in ys]
    wm = (1 << width) - 1
    lenm = (1 << plen) - 1
    imgs = [(((y * mult) & wm) >> shift) & lenm for y in ys]
    return all(a < b for a, b in zip(imgs, imgs[1:]))
