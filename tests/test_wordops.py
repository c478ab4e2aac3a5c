import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusionsort.wordops import (
    WIDTHS,
    WordError,
    check_word,
)

from oracles import (
    EqualWords,
    IndexOutOfWidth,
    ZeroWord,
    block_leading_bits_mask,
    block_low_bits_mask,
    clear_low_bits,
    delta,
    msb,
    msb_debruijn,
    set_low_bits,
    trailing_ones_mask,
    word_mask,
)

words64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
bits64 = st.integers(min_value=0, max_value=63)


def test_msb_examples():
    assert msb(136, 16) == 7
    assert msb(1, 64) == 0
    assert msb(2**63, 64) == 63


def test_msb_zero_raises():
    with pytest.raises(ZeroWord):
        msb(0, 64)
    with pytest.raises(ZeroWord):
        msb_debruijn(0, 8)


def test_msb_rejects_out_of_range():
    with pytest.raises(WordError):
        msb(256, 8)
    with pytest.raises(WordError):
        check_word(-1, 64)
    with pytest.raises(WordError):
        check_word(True, 64)
    with pytest.raises(WordError):
        word_mask(12)


@pytest.mark.parametrize("width", [8, 16])
def test_msb_debruijn_exhaustive(width):
    for x in range(1, 1 << width):
        assert msb(x, width) == msb_debruijn(x, width)


@pytest.mark.parametrize("width", [32, 64])
def test_msb_debruijn_powers(width):
    for i in range(width):
        assert msb_debruijn(1 << i, width) == i
        if i:
            assert msb_debruijn((1 << i) | 1, width) == i


@given(st.integers(min_value=1, max_value=(1 << 64) - 1))
def test_msb_both_paths_agree(x):
    assert msb(x, 64) == msb_debruijn(x, 64)


@given(st.integers(min_value=1, max_value=(1 << 64) - 1))
def test_msb_brackets_value(x):
    b = msb(x, 64)
    assert (1 << b) <= x < (1 << (b + 1))


def test_delta_examples():
    assert delta(0b11101001, 0b11111001, 8) == 4
    assert delta(0b11100111, 0b11100001, 8) == 2
    assert delta(0, 1, 64) == 0


def test_delta_equal_raises():
    with pytest.raises(EqualWords):
        delta(42, 42, 16)


@given(words64, words64)
def test_delta_properties(s1, s2):
    if s1 == s2:
        return
    b = delta(s1, s2)
    assert b == msb(s1 ^ s2)
    # all bits above the differing one agree
    assert (s1 >> (b + 1)) == (s2 >> (b + 1))
    lo, hi = sorted((s1, s2))
    assert (lo >> b) & 1 == 0
    assert (hi >> b) & 1 == 1


def test_trailing_ones_mask():
    assert trailing_ones_mask(3, 8) == 0b00001111
    assert trailing_ones_mask(0, 8) == 1
    assert trailing_ones_mask(7, 8) == 255
    with pytest.raises(IndexOutOfWidth):
        trailing_ones_mask(8, 8)


def test_set_clear_examples():
    assert clear_low_bits(0b11100001, 2, 8) == 0b11100000
    assert set_low_bits(0b11101000, 3, 8) == 0b11101111
    assert set_low_bits(0b11100111, 2, 8) == 0b11100111  # already set
    assert clear_low_bits(0b11100000, 2, 8) == 0b11100000  # already clear


@given(words64, bits64)
def test_clear_low_bits_arithmetic_oracle(x, b):
    assert clear_low_bits(x, b) == x - (x % (1 << (b + 1)))


@given(words64, bits64)
def test_set_low_bits_arithmetic_oracle(x, b):
    assert set_low_bits(x, b) == x | ((1 << (b + 1)) - 1)


@given(words64, words64, bits64)
def test_set_clear_monotone(x, y, b):
    lo, hi = sorted((x, y))
    assert set_low_bits(lo, b) <= set_low_bits(hi, b)
    assert clear_low_bits(lo, b) <= clear_low_bits(hi, b)
    assert clear_low_bits(x, b) <= x <= set_low_bits(x, b)


def test_block_leading_bits_mask_example():
    assert block_leading_bits_mask(4, 4, 16) == 0b1000100010001000
    assert block_leading_bits_mask(1, 1, 8) == 1


def test_block_masks_loop_oracle():
    for bs in range(1, 9):
        for bc in range(1, 9):
            if bs * bc > 64:
                continue
            lead = 0
            low = 0
            for i in range(bc):
                lead |= 1 << (i * bs + bs - 1)
                low |= 1 << (i * bs)
            assert block_leading_bits_mask(bs, bc, 64) == lead
            assert block_low_bits_mask(bs, bc, 64) == low
    assert block_leading_bits_mask(8, 8, 64) == sum(1 << (8 * i + 7) for i in range(8))


def test_block_mask_overflow():
    with pytest.raises(OverflowError):
        block_leading_bits_mask(9, 8, 64)
    with pytest.raises(WordError):
        block_leading_bits_mask(0, 4, 64)


@pytest.mark.parametrize("width", WIDTHS)
def test_results_masked_to_width(width):
    wm = word_mask(width)
    assert clear_low_bits(wm, width - 1, width) == 0
    assert set_low_bits(0, width - 1, width) == wm
