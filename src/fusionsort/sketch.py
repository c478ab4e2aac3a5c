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

from .wordops import word_mask

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
        most significant first (exact), or relocated into the padded
        window by one masked multiplication (multiplicative)."""
        if self.strategy == MULTIPLICATIVE:
            prod = ((x & self.mask) * self.multiplier) & word_mask(self.width)
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
    try:
        mult, shift, plen = find_multiplier(bits, width, max_padded_length)
    except NoValidMultiplier:
        logging = sys.modules.get("logging")  # else no handler can exist
        if logging is not None:
            logging.getLogger(__name__).debug(
                "multiplicative sketch fallback: bits=%s width=%d cap=%s",
                bits, width, max_padded_length)
        return SketchScheme(width, bits, mask, EXACT, len(bits), fallback=True)
    # the window lies inside the word, so masking the product to the word
    # before the shift changes no sketch bit (locate and _ensure skip it)
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
    """
    bits = tuple(sorted(set(relevant_bits)))
    if not bits:
        raise SketchError("at least one relevant bit is required")
    for b in bits:
        if not 0 <= b < width:
            raise SketchError(f"relevant bit {b} outside [0, {width})")
    r = len(bits)
    if r > 16:  # _order_preserving tries all 2**r patterns; nodes have <= 7 bits
        raise NoValidMultiplier(f"{r} relevant bits are too many to verify")
    lcap = r * r
    if max_padded_length is not None:
        lcap = min(lcap, max_padded_length)
    lcap = min(lcap, width)
    return _find_multiplier_cached(bits, width, lcap)


@lru_cache(maxsize=65536)
def _find_multiplier_cached(bits: tuple[int, ...], width: int, lcap: int):
    r = len(bits)
    if lcap < r:
        raise NoValidMultiplier(f"window cap {lcap} below bit count {r}")

    span = bits[-1] - bits[0] + 1
    if span <= lcap:
        # One shared shift: the bits are already close enough together.
        result = (1, bits[0], span)
        if _order_preserving(bits, width, *result):
            return result
        raise NoValidMultiplier("degenerate single-shift scheme failed verification")

    # General case: partition the ascending bits into consecutive runs,
    # one shift per run, so each run's window image mirrors its internal
    # spacing.  Cross-run product terms must fall outside the window
    # [0, lcap) and must not collide below it, where a carry could ripple
    # upward into the extracted field.
    budget = [_SEARCH_BUDGET]
    sigmas: list[int] = []
    offsets: list[int] = [0] * r  # window offset of each bit's target
    negatives: set[int] = set()

    def place(i: int, next_off: int):
        if budget[0] <= 0:
            return None
        if i == r:
            base = max(0, max(bits[k] - offsets[k] for k in range(r)))
            last = offsets[r - 1]
            if base + last >= width:
                return None
            mult = 0
            for sg in set(sigmas):
                mult |= 1 << (base + sg)
            return (mult, base, last + 1)
        for j in range(r - 1, i - 1, -1):  # longest run first
            gspan = bits[j] - bits[i] + 1
            if i == 0:
                bases = (0,) if gspan <= lcap else ()
            else:
                bases = range(next_off, lcap - gspan + 1)
            for o in bases:
                budget[0] -= 1
                if budget[0] <= 0:
                    return None
                sigma = o - bits[i]
                if sigma in sigmas:
                    continue  # covered by the merged-run alternative
                fresh: list[int] = []
                ok = True
                for k in range(r):
                    if i <= k <= j:
                        offsets[k] = o + (bits[k] - bits[i])
                        continue
                    p = bits[k] + sigma
                    if 0 <= p < lcap:
                        ok = False  # stray inside the window
                        break
                    if p < 0:
                        if p in negatives:
                            ok = False  # collision below the window
                            break
                        fresh.append(p)
                if ok:
                    sigmas.append(sigma)
                    negatives.update(fresh)
                    found = place(j + 1, o + gspan)
                    if found is not None:
                        return found
                    sigmas.pop()
                    negatives.difference_update(fresh)
        return None

    result = place(0, 0)
    if result is not None and _order_preserving(bits, width, *result):
        return result
    raise NoValidMultiplier(f"no constant found for bits {bits} within window {lcap}")


def _order_preserving(bits_asc, width, mult, shift, plen) -> bool:
    """Exhaustive check: padded images of all relevant-bit patterns are
    strictly increasing in the exact-sketch order."""
    assert len(bits_asc) <= 16, "find_multiplier refuses unverifiable bit counts"
    ys = [0]  # ys[p] sets bits_asc[k] where pattern p has bit k
    for b in bits_asc:
        bit = 1 << b
        ys += [y | bit for y in ys]
    wm = word_mask(width)
    lenm = (1 << plen) - 1
    imgs = [(((y * mult) & wm) >> shift) & lenm for y in ys]
    return all(a < b for a, b in zip(imgs, imgs[1:]))
