import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionsort.sketch import (
    EXACT,
    MULTIPLICATIVE,
    NoValidMultiplier,
    _order_preserving,
    find_multiplier,
    scheme_from_bits,
)
from fusionsort.trie import CompressedTrie
from fusionsort.wordops import word_mask

from oracles import order_preserving, sketch_exact

KEYS8 = [0b11011111, 0b11100000, 0b11100001, 0b11111110]


def scheme_of(trie, strategy=MULTIPLICATIVE, max_padded_length=None):
    """Scheme whose relevant bits are the trie's branch bits."""
    return scheme_from_bits(trie.relevant_bits(), trie.width, strategy,
                            max_padded_length)


def test_scheme_from_trie_example():
    t = CompressedTrie(KEYS8, width=8)
    s = scheme_of(t, strategy=EXACT)
    assert s.relevant_bits == (5, 4, 0)
    assert s.mask == 0b00110001
    assert s.strategy == EXACT


def test_scheme_from_empty_trie_is_empty():
    s = scheme_of(CompressedTrie([], width=8))
    assert s.relevant_bits == () and s.length == 0
    assert s.strategy == EXACT and not s.fallback


def test_scheme_single_key_trie():
    t = CompressedTrie([7], width=8)
    s = scheme_of(t)
    assert s.relevant_bits == ()
    assert s.mask == 0
    assert s.length == 0
    assert s.sketch(0b1010) == 0


def test_scheme_mask_popcount_matches_branches():
    rng = random.Random(3)
    for _ in range(100):
        keys = rng.sample(range(1 << 16), rng.randint(2, 12))
        t = CompressedTrie(keys, width=16)
        s = scheme_of(t, strategy=EXACT)
        assert bin(s.mask).count("1") == len(t.relevant_bits())


def test_sketch_exact_examples():
    t = CompressedTrie(KEYS8, width=8)
    s = scheme_of(t, strategy=EXACT)
    assert [s.sketch(k) for k in sorted(KEYS8)] == [0b011, 0b100, 0b101, 0b110]
    assert s.sketch(0b11100111) == 0b101
    assert [sketch_exact(s, k) for k in sorted(KEYS8)] == [0b011, 0b100, 0b101, 0b110]


def test_sketch_exact_order_preserving_random():
    rng = random.Random(11)
    for _ in range(200):
        keys = sorted(rng.sample(range(1 << 32), rng.randint(2, 8)))
        t = CompressedTrie(keys, width=32)
        s = scheme_of(t, strategy=EXACT)
        sks = [s.sketch(k) for k in keys]
        assert sks == [sketch_exact(s, k) for k in keys]
        assert sks == sorted(sks)
        assert len(set(sks)) == len(sks)
        assert all(v < (1 << s.length) for v in sks)
        assert s.length <= len(keys) - 1


def test_find_multiplier_single_bit():
    assert find_multiplier([5], 64) == (1, 5, 1)


def test_find_multiplier_close_bits_identity():
    # contiguous relevant bits: one shared shift, no padding
    mult, shift, plen = find_multiplier([5, 4, 0], 64)
    assert (mult, shift, plen) == (1, 0, 6)


def test_find_multiplier_verified_on_patterns():
    cases = [(5, 4, 0), (63, 31, 0), (62, 40, 13, 2), (10, 20, 30, 40), (1, 2, 3)]
    for bits in cases:
        try:
            mult, shift, plen = find_multiplier(bits, 64)
        except NoValidMultiplier:
            continue  # a clean fallback signal is acceptable
        assert order_preserving(sorted(bits), 64, mult, shift, plen)
        assert plen <= len(bits) * len(bits)


def test_find_multiplier_window_cap():
    # spread bits with a tight cap either succeed inside the cap or fail cleanly
    try:
        mult, shift, plen = find_multiplier([0, 5, 10, 15, 20, 25], 64, max_padded_length=8)
        assert plen <= 8
    except NoValidMultiplier:
        pass


def test_find_multiplier_refuses_unverifiable_bit_counts():
    # 17 contiguous bits would pass the single-shift case unchecked
    with pytest.raises(NoValidMultiplier):
        find_multiplier(range(17), 64)
    s = scheme_from_bits(range(0, 63, 3), 64, MULTIPLICATIVE)
    assert s.strategy == EXACT and s.fallback


def test_scheme_fallback_flag():
    s = scheme_from_bits([0, 5, 10, 15, 20, 25], 64, MULTIPLICATIVE, max_padded_length=6)
    if s.strategy == EXACT:
        assert s.fallback
    else:
        assert s.padded_length <= 6


def test_exact_scheme_sketch_matches_oracle():
    # an exact scheme (requested, or a multiplicative fallback) packs bits
    for s in (scheme_from_bits([3, 1], 16, EXACT),
              scheme_from_bits(range(0, 63, 3), 64, MULTIPLICATIVE)):
        assert s.strategy == EXACT and s.multiplier is None
        for x in (0, 5, 0xA5A5, word_mask(16)):
            assert s.sketch(x) == sketch_exact(s, x)


def test_approx_exact_order_agreement_node_keys():
    rng = random.Random(29)
    checked = 0
    for _ in range(300):
        keys = sorted({rng.getrandbits(64) for _ in range(rng.randint(2, 8))})
        if len(keys) < 2:
            continue
        t = CompressedTrie(keys, width=64)
        s = scheme_of(t, strategy=MULTIPLICATIVE,
                             max_padded_length=64 // len(keys) - 1)
        if s.strategy != MULTIPLICATIVE:
            continue
        checked += 1
        ap = [s.sketch(k) for k in keys]
        ex = [sketch_exact(s, k) for k in keys]
        assert ap == sorted(ap) and len(set(ap)) == len(ap)
        assert ex == sorted(ex)
    assert checked > 200  # the multiplicative route must be the common case


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=6,
                unique=True))
@settings(max_examples=150)
def test_find_multiplier_images_monotone(bits):
    try:
        mult, shift, plen = find_multiplier(bits, 64)
    except NoValidMultiplier:
        return
    assert order_preserving(sorted(bits), 64, mult, shift, plen)


def test_padded_blocks_uniform_per_scheme():
    # all words sketch into the same padded length
    s = scheme_from_bits([47, 13, 2], 64, MULTIPLICATIVE)
    assert s.strategy == MULTIPLICATIVE
    for x in (0, word_mask(64), 1 << 47, (1 << 13) | (1 << 2)):
        assert s.sketch(x) < (1 << s.padded_length)


@st.composite
def node_bit_sets(draw):
    """(relevant bits, node budget 64 // t - 1, whether the bits fit one
    shared shift): 1-7 bits, t = 2..8."""
    t = draw(st.integers(2, 8))
    budget = 64 // t - 1
    r = draw(st.integers(1, 7))
    if draw(st.booleans()):  # inside one window: the single-shift case
        window = min(budget, r * r)
        lo = draw(st.integers(0, 64 - window))
        bits = draw(st.lists(st.integers(lo, lo + window - 1), min_size=r,
                             max_size=r, unique=True))
        return bits, budget, True
    bits = draw(st.lists(st.integers(0, 63), min_size=r, max_size=r, unique=True))
    return bits, budget, False


@given(node_bit_sets(), st.lists(st.integers(0, word_mask(64)), min_size=1,
                                 max_size=8))
@settings(max_examples=300)
def test_window_inside_word(case, words):
    # shift + padded_length <= width, so masking the product to the word
    # before the shift (as SketchScheme.sketch does) changes no sketch bit
    bits, budget, one_shift = case
    s = scheme_from_bits(bits, 64, MULTIPLICATIVE, budget)
    if one_shift:
        assert s.strategy == MULTIPLICATIVE and s.multiplier == 1
    if s.strategy != MULTIPLICATIVE:
        return
    assert s.shift + s.padded_length <= 64
    lenm = (1 << s.padded_length) - 1
    for x in words:
        prod = (x & s.mask) * s.multiplier
        assert (prod >> s.shift) & lenm == ((prod & word_mask(64)) >> s.shift) & lenm
        assert (prod >> s.shift) & lenm == s.sketch(x)


def test_order_check_matches_oracle_and_rejects_corruption():
    rng = random.Random(41)
    found = rejected = 0
    for _ in range(150):
        bits = sorted(rng.sample(range(64), rng.randint(1, 7)))
        budget = 64 // rng.randint(2, 8) - 1
        try:
            mult, shift, plen = find_multiplier(bits, 64, budget)
        except NoValidMultiplier:
            continue
        found += 1
        corrupt = [(mult ^ (1 << rng.randrange(64)), shift, plen),
                   (mult, shift + 1, plen), (mult, max(0, shift - 1), plen),
                   (mult, shift, plen - 1)]
        for c in [(mult, shift, plen)] + corrupt:
            got = _order_preserving(bits, 64, *c)
            assert got == order_preserving(bits, 64, *c), (bits, c)
        assert _order_preserving(bits, 64, mult, shift, plen)
        rejected += sum(not _order_preserving(bits, 64, *c) for c in corrupt)
    assert found > 50 and rejected > 0
