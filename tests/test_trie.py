import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionsort.trie import CompressedTrie, DuplicateKey

from oracles import trie_insert, trie_leaves, trie_to_tuple, trs

# the four-key example set used throughout: branch bits b5, b4, b0
KEYS8 = [0b11011111, 0b11100000, 0b11100001, 0b11111110]


def scan_rank(keys, x):
    return sum(1 for k in keys if k <= x)


def key_sets(width=8, max_size=8):
    return st.lists(
        st.integers(min_value=0, max_value=(1 << width) - 1),
        min_size=1, max_size=max_size, unique=True,
    )


def test_build_two_keys_single_branch():
    t = CompressedTrie([0b11101001, 0b11111001], width=8)
    assert t.relevant_bits() == (4,)
    assert t.internal_node_count() == 1
    assert trie_leaves(t) == [0b11101001, 0b11111001]


def test_build_four_key_example():
    t = CompressedTrie(KEYS8, width=8)
    assert t.relevant_bits() == (5, 4, 0)
    assert t.internal_node_count() == 3
    assert trie_leaves(t) == sorted(KEYS8)


def test_build_singleton():
    t = CompressedTrie([42], width=8)
    assert t.relevant_bits() == ()
    assert t.internal_node_count() == 0
    assert trs(t, 0) == 42


def test_build_rejects_duplicates():
    with pytest.raises(DuplicateKey):
        CompressedTrie([1, 1], width=8)


def test_trs_example():
    t = CompressedTrie(KEYS8, width=8)
    assert trs(t, 0b11100111) == 0b11100001  # lands on c
    for k in KEYS8:
        assert trs(t, k) == k


@given(key_sets(), st.integers(min_value=0, max_value=255))
def test_trs_path_bits_match(keys, x):
    t = CompressedTrie(keys, width=8)
    s = trs(t, x)
    # replay the descent: every branch bit on the path must match x
    node = t.root
    while hasattr(node, "bit"):
        side = (x >> node.bit) & 1
        assert (s >> node.bit) & 1 == side
        node = node.one if side else node.zero
    assert node.key == s


def test_rank_two_pass_masks():
    t = CompressedTrie(KEYS8, width=8)
    assert t.rank(231) == 3  # between c and d, low-bit case forces OR mask
    t2 = CompressedTrie([0b11011111, 0b11100100, 0b11100101, 0b11111110], width=8)
    assert t2.rank(0b11100001) == 1  # successor found via AND mask


def test_rank_empty_and_members():
    assert CompressedTrie([], width=8).rank(7) == 0
    t = CompressedTrie(KEYS8, width=8)
    for i, k in enumerate(sorted(KEYS8)):
        assert t.rank(k) == i + 1


def test_rank_random_oracle():
    rng = random.Random(123)
    for _ in range(400):
        n = rng.randint(1, 12)
        keys = rng.sample(range(1 << 16), n)
        t = CompressedTrie(keys, width=16)
        for _ in range(25):
            x = rng.randrange(1 << 16)
            assert t.rank(x) == scan_rank(keys, x)


@pytest.mark.parametrize("width", [8, 16, 64])
@given(data=st.data())
@settings(max_examples=200)
def test_rank_matches_scan(width, data):
    keys = data.draw(key_sets(width=width, max_size=10))
    x = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    t = CompressedTrie(keys, width=width)
    assert t.rank(x) == scan_rank(keys, x)


def test_insert_matches_batch_build():
    rng = random.Random(5)
    for _ in range(200):
        keys = rng.sample(range(1 << 12), rng.randint(1, 10))
        inc = CompressedTrie([], width=16)
        for k in keys:
            trie_insert(inc, k)
        batch = CompressedTrie(keys, width=16)
        assert trie_to_tuple(inc) == trie_to_tuple(batch)


def test_insert_adds_single_branch_at_delta():
    rng = random.Random(9)
    for _ in range(200):
        keys = rng.sample(range(1 << 12), rng.randint(1, 9))
        t = CompressedTrie(keys, width=16)
        x = rng.randrange(1 << 12)
        if x in keys:
            with pytest.raises(DuplicateKey):
                trie_insert(t, x)
            continue
        before = t.internal_node_count()
        expect_bit = (x ^ trs(t, x)).bit_length() - 1
        trie_insert(t, x)
        assert t.internal_node_count() == before + 1
        assert expect_bit in t.relevant_bits()
        assert trie_leaves(t) == sorted(keys + [x])


def test_insert_into_empty():
    t = trie_insert(CompressedTrie([], width=8), 9)
    assert trie_leaves(t) == [9]


def test_fig_style_insert():
    t = CompressedTrie(KEYS8, width=8)
    trie_insert(t, 0b11100111)
    assert t.relevant_bits() == (5, 4, 2, 0)
    assert trie_to_tuple(t) == trie_to_tuple(CompressedTrie(KEYS8 + [0b11100111], width=8))


@given(key_sets(width=32, max_size=16))
def test_structural_invariants(keys):
    t = CompressedTrie(keys, width=32)
    assert t.internal_node_count() == len(keys) - 1
    assert len(t.relevant_bits()) <= max(len(keys) - 1, 0)
    assert trie_leaves(t) == sorted(keys)
    # branch bits strictly decrease along every root-to-leaf path
    stack = [(t.root, 33)]
    while stack:
        node, bound = stack.pop()
        if hasattr(node, "bit"):
            assert node.bit < bound
            stack.append((node.zero, node.bit))
            stack.append((node.one, node.bit))


def test_to_dot_shape():
    t = CompressedTrie(KEYS8, width=8)
    dot = t.to_dot()
    assert dot.startswith("digraph compressed_trie {")
    assert dot.rstrip().endswith("}")
    assert 'label="b5"' in dot and 'label="b4"' in dot and 'label="b0"' in dot
    assert 'label="11011111"' in dot
    assert dot.count('label="0"') == 3 and dot.count('label="1"') == 3
    # node names are n0..n6 in preorder
    for i in range(7):
        assert f"n{i} " in dot
