import itertools
import random
from collections import Counter
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionsort.btree import BTree, btree_sort_with_stats
from fusionsort.counters import OpCounters
from fusionsort.fusion_node import CapacityExceeded, FusionNode, NodeError
from fusionsort.fusion_tree import FusionTree, fusion_sort_with_stats
from fusionsort.sketch import EXACT, MULTIPLICATIVE
from fusionsort.trie import CompressedTrie, DuplicateKey
from fusionsort.wordops import WIDTHS

import oracles
from oracles import block_leading_bits_mask, block_low_bits_mask

KEYS8 = [0b11011111, 0b11100000, 0b11100001, 0b11111110]
X8 = 0b11100111


def scan_rank(keys, x):
    return sum(1 for k in keys if k <= x)


def golden_node(strategy=EXACT):
    # 16-bit packing: 4 blocks of 4 bits each
    return FusionNode(list(KEYS8), width=16, cap=7, strategy=strategy)


def pass1(n, x):
    """The values locate() records for pass 1 of its rank."""
    trace = {}
    n.locate(x, OpCounters(), trace)
    return trace


def test_build_golden_word():
    n = golden_node()
    assert n.sketches() == [0b011, 0b100, 0b101, 0b110]
    assert n.node_word == 48350
    assert n.block_size == 4
    assert n.word_width == 16


def test_build_singleton():
    n = FusionNode([9], width=16)
    assert n.node_word == 1
    assert n.block_size == 1
    assert n.rank(8) == 0 and n.rank(9) == 1 and n.rank(10) == 1
    trace = pass1(n, 1234)
    assert trace["selected"] == 9
    assert trace["count"] == 0


def test_build_payloads_ordered_random():
    rng = random.Random(17)
    for _ in range(200):
        keys = sorted({rng.getrandbits(64) for _ in range(rng.randint(2, 7))})
        if len(keys) < 2:
            continue
        n = FusionNode(keys, width=64)
        block, word = n.block_size, n.node_word
        payload_mask = (1 << (block - 1)) - 1
        payloads = []
        for i in range(len(keys)):
            blk = (word >> ((len(keys) - 1 - i) * block)) & ((1 << block) - 1)
            assert blk >> (block - 1) == 1  # separator present
            payloads.append(blk & payload_mask)
        assert payloads == sorted(payloads)
        assert len(set(payloads)) == len(payloads)
        assert payloads == n.sketches()


def test_build_errors():
    with pytest.raises(CapacityExceeded):
        FusionNode(list(range(8)), width=64, cap=7)
    with pytest.raises(DuplicateKey):
        FusionNode([3, 3], width=64)
    with pytest.raises(NodeError):
        FusionNode([], width=64)
    with pytest.raises(CapacityExceeded):
        FusionNode([1], width=64, cap=9)


def test_query_word_golden():
    n = golden_node()
    assert pass1(n, X8)["sketch"] * n._unit == 21845
    assert pass1(n, 0)["sketch"] * n._unit == 0


def test_query_word_loop_oracle():
    rng = random.Random(23)
    for _ in range(100):
        keys = sorted(rng.sample(range(1 << 16), rng.randint(2, 7)))
        n = FusionNode(keys, width=16, strategy=EXACT)
        x = rng.randrange(1 << 16)
        sk = n.sketch_of(x)
        assert pass1(n, x)["sketch"] == sk
        block, t = n.block_size, len(keys)
        expect = 0
        for i in range(t):
            expect |= sk << (i * block)
        assert sk * n._unit == expect


def test_block_masks_match_oracles():
    # the replication multiplier and the separator mask of every node
    # shape, against the packed-block mask oracles
    rng = random.Random(29)
    for width in WIDTHS:
        for t in range(1, 9):
            for strategy in (EXACT, MULTIPLICATIVE):
                keys = set()
                while len(keys) < t:
                    keys.add(rng.getrandbits(width))
                n = FusionNode(keys, width=width, cap=8, strategy=strategy)
                block = n.block_size
                assert n._unit == block_low_bits_mask(block, t, 64)
                assert n._top_mask == block_leading_bits_mask(block, t, 64)


def test_pass1_golden_chain():
    n = golden_node()
    trace = pass1(n, X8)
    wq = trace["sketch"] * n._unit
    diff = n.node_word - wq
    assert diff == 26505
    masked = diff & n._top_mask
    assert masked == trace["survivors"] == 136
    assert masked.bit_length() - 1 == 7
    assert trace["count"] == 2
    assert trace["selected"] == 0b11100001


def test_pass1_count_extremes():
    n = golden_node()
    assert pass1(n, 0)["count"] == 0  # below all: every separator survives
    assert pass1(n, 0xFFFF)["count"] == 4  # above all: none survive


def test_pass1_count_brute_scan():
    rng = random.Random(31)
    for _ in range(400):
        keys = sorted(rng.sample(range(1 << 16), rng.randint(1, 7)))
        for strategy in (EXACT, MULTIPLICATIVE):
            n = FusionNode(keys, width=16, strategy=strategy)
            sks = n.sketches()
            for _ in range(6):
                x = rng.randrange(1 << 16)
                skx = n.sketch_of(x)
                trace = pass1(n, x)
                assert trace["count"] == sum(1 for s in sks if s < skx)
                if len(keys) > 1:
                    assert trace["sketch"] == skx
                    assert trace["survivors"] == (
                        (n.node_word - skx * n._unit) & n._top_mask)


def test_no_borrow_across_blocks():
    # each block's subtraction, done in isolation, reassembles to the full one
    rng = random.Random(37)
    for _ in range(200):
        keys = sorted(rng.sample(range(1 << 16), rng.randint(2, 7)))
        n = FusionNode(keys, width=16, strategy=EXACT)
        x = rng.randrange(1 << 16)
        block, t = n.block_size, len(keys)
        skx = n.sketch_of(x)
        full = (n.node_word - skx * n._unit) & ((1 << (t * block)) - 1)
        bm = (1 << block) - 1
        rebuilt = 0
        for i in range(t):
            blk = (n.node_word >> (i * block)) & bm
            rebuilt |= ((blk - skx) & bm) << (i * block)
        assert rebuilt == full


def test_selected_key_members_and_golden():
    n = golden_node()
    for k in KEYS8:
        assert pass1(n, k)["selected"] == k
    assert pass1(n, X8)["selected"] == 0b11100001


def test_selected_key_falloff_matches_trie():
    # pass 1 may select a different leaf than the trie descent, but the
    # fall-off bit (most significant differing bit) always agrees, which is
    # all the second rank pass uses.
    rng = random.Random(41)
    for _ in range(500):
        keys = sorted(rng.sample(range(1 << 16), rng.randint(1, 7)))
        n = FusionNode(keys, width=16)
        trie = CompressedTrie(keys, width=16)
        for _ in range(6):
            x = rng.randrange(1 << 16)
            got = pass1(n, x)["selected"]
            want = trie.trs(x)
            if x in keys:
                assert got == want == x
            else:
                assert (x ^ got).bit_length() == (x ^ want).bit_length()


def test_node_rank_golden_and_extremes():
    n = golden_node()
    assert n.rank(231) == 3
    assert n.rank(0) == 0
    assert n.rank(0xFFFF) == 4
    for i, k in enumerate(sorted(KEYS8)):
        assert n.rank(k) == i + 1


def test_node_rank_exhaustive_8bit():
    # all queries against a few fixed 4-key nodes, both strategies
    pools = [KEYS8, [0, 8, 12, 200], [2, 3, 5, 6], [1, 2, 128, 255]]
    for keys in pools:
        keys = sorted(keys)
        trie = CompressedTrie(keys, width=8)
        for strategy in (EXACT, MULTIPLICATIVE):
            n = FusionNode(keys, width=8, strategy=strategy)
            for x in range(256):
                want = scan_rank(keys, x)
                assert n.rank(x) == want
                assert trie.rank(x) == want


def test_node_rank_random_64bit():
    rng = random.Random(43)
    for _ in range(600):
        keys = sorted({rng.getrandbits(64) for _ in range(rng.randint(1, 7))})
        for strategy in (EXACT, MULTIPLICATIVE):
            n = FusionNode(keys, width=64, strategy=strategy)
            for _ in range(4):
                x = rng.getrandbits(64)
                assert n.rank(x) == scan_rank(keys, x)
            # boundary neighbors of each key
            for k in keys:
                assert n.rank(k) == scan_rank(keys, k)
                if k:
                    assert n.rank(k - 1) == scan_rank(keys, k - 1)


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1),
             min_size=1, max_size=7, unique=True),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)
@settings(max_examples=300)
def test_node_rank_hypothesis(keys, x):
    keys = sorted(keys)
    n = FusionNode(keys, width=32)
    assert n.rank(x) == scan_rank(keys, x)


def test_locate():
    n = golden_node()
    ops = OpCounters()
    assert n.locate(0, ops) == (0, False)
    assert n.locate(0xFFFF, ops) == (4, False)
    assert n.locate(230, ops) == (3, False)  # strictly between 225 and 254
    assert n.locate(225, ops) == (3, True)
    rank_ops, locate_ops = OpCounters(), OpCounters()
    golden_node().rank(X8, rank_ops)
    golden_node().locate(X8, locate_ops)
    assert locate_ops.word_ops == rank_ops.word_ops
    assert locate_ops.key_compares == rank_ops.key_compares + 1  # membership
    rng = random.Random(47)
    for _ in range(200):
        keys = sorted(rng.sample(range(1 << 16), 5))
        n = FusionNode(keys, width=16)
        i = rng.randrange(4)
        lo, hi = keys[i], keys[i + 1]
        if hi - lo < 2:
            continue
        x = rng.randrange(lo + 1, hi)
        assert n.locate(x, ops) == (i + 1, False)
        assert n.locate(hi, ops) == (i + 2, True)


def _exit(n, x, answer, trace):
    """Which exit of locate's straight-line passes x leaves by."""
    if len(n.keys) == 1:
        return "t = 1"
    if answer[1]:
        return "member in pass 1"
    s = trace["selected"]
    if x < s:
        return "pass 2 down"
    y = x | ((1 << (x ^ s).bit_length()) - 1)
    return ("pass 2 saturated" if n.scheme.sketch(y) == (1 << n._plen) - 1
            else "pass 2 up")


def test_locate_matches_loop_oracle():
    # the straight-line passes answer, charge and trace probe for probe
    # as the loop form in tests/oracles.py does
    rng = random.Random(PIN_SEED + 1)
    exits = Counter()
    for width in WIDTHS:
        top = (1 << width) - 1
        for t in range(1, 9):
            for strategy in (EXACT, MULTIPLICATIVE):
                for _ in range(6):
                    keys = set()
                    while len(keys) < t:
                        keys.add(rng.getrandbits(width))
                    keys = sorted(keys)
                    probes = {0, top}
                    probes.update(min(top, max(0, k + d)) for k in keys for d in (-1, 0, 1))
                    probes.update(rng.getrandbits(width) for _ in range(8))
                    n = FusionNode(keys, width=width, cap=8, strategy=strategy)
                    for x in sorted(probes):
                        got_ops, want_ops = OpCounters(), OpCounters()
                        got_trace, want_trace = {}, {}
                        got = n.locate(x, got_ops, got_trace)
                        want = oracles.locate(n, x, want_ops, want_trace)
                        assert (got, got_ops.snapshot(), got_trace) == (
                            want, want_ops.snapshot(), want_trace), (keys, strategy, x)
                        assert got == (scan_rank(keys, x), x in keys)
                        exits[_exit(n, x, got, got_trace)] += 1
                        if t > 1 and got_trace["count"] == t:
                            exits["pass 1 with no survivor"] += 1
    assert set(exits) == {"t = 1", "member in pass 1", "pass 1 with no survivor",
                          "pass 2 saturated", "pass 2 up", "pass 2 down"}, exits


def test_node_insert_rebuilds():
    # the tree splices keys into a materialized node; the next query rebuilds
    t = FusionTree(width=8, cap=7)
    t.insert(9)
    assert t.root.node_word == 1
    t.insert(13)
    assert t.root.keys == [9, 13]
    assert t.root.scheme.relevant_bits == ((9 ^ 13).bit_length() - 1,)
    g = FusionTree(width=16, cap=7, strategy=EXACT)
    for k in KEYS8:
        g.insert(k)
    assert g.root.node_word == 48350
    g.insert(X8)
    assert g.root.scheme.relevant_bits == (5, 4, 2, 0)


def test_node_insert_order_independent():
    rng = random.Random(53)
    for _ in range(100):
        keys = rng.sample(range(1 << 16), 6)
        batch = FusionNode(sorted(keys), width=16)
        t = FusionTree(width=16, cap=7)
        for k in keys:
            t.insert(k)
        inc = t.root  # six keys: no split
        assert inc.node_word == batch.node_word
        assert inc.keys == batch.keys


def test_node_rank_agrees_with_trie_exhaustive_pool():
    pool = [0, 3, 8, 12, 66, 100, 129, 255]
    for keys in itertools.combinations(pool, 3):
        keys = sorted(keys)
        n = FusionNode(list(keys), width=8)
        t = CompressedTrie(keys, width=8)
        for x in range(256):
            assert n.rank(x) == t.rank(x) == scan_rank(keys, x)


def test_op_counters_charged():
    # the constant-op budget applies to the multiplicative route; the
    # exact route deliberately pays ~4 word ops per relevant bit instead
    n = golden_node(strategy=MULTIPLICATIVE)
    assert n.scheme.strategy == MULTIPLICATIVE
    ops = OpCounters()
    n.rank(231, ops)
    assert 0 < ops.word_ops <= 40
    assert ops.key_compares >= 1
    assert 0 < pass1(n, 231)["word_ops"] < ops.word_ops

    exact_ops = OpCounters()
    golden_node(strategy=EXACT).rank(231, exact_ops)
    assert exact_ops.word_ops > ops.word_ops  # per-bit extraction costs more


def test_dump_mentions_structure():
    text = golden_node().dump()
    assert "b5 b4 b0" in text
    assert "48350" in text
    assert "block size 4" in text
    assert "1 011 1 100 1 101 1 110" in text


# -- charge pinning ------------------------------------------------------------
# Totals recorded from the node code before the rank path was folded into
# one body; any change to what locate() or rank() charges moves them.

PIN_SEED = 20261018
PIN_LOCATE = (192291, 10030)  # (word_ops, key_compares)
PIN_RANK = (192291, 5304)
PIN_FUSION_SORT = (3466301, 199536, 6, 4336)  # (word_ops, key_compares, height, splits)
PIN_BTREE_SORT = (0, 315643, 6, 4336)


def _pin_nodes():
    rng = random.Random(PIN_SEED)
    for width in (8, 16, 32, 64):
        for t in range(1, 9):
            for strategy in (EXACT, MULTIPLICATIVE):
                for _ in range(4):
                    keys = set()
                    while len(keys) < t:
                        keys.add(rng.getrandbits(width))
                    keys = sorted(keys)
                    top = (1 << width) - 1
                    probes = {min(top, max(0, k + d)) for k in keys for d in (-1, 0, 1)}
                    probes.update(rng.getrandbits(width) for _ in range(8))
                    yield FusionNode(keys, width=width, cap=8, strategy=strategy), sorted(probes)


def test_charges_pinned():
    locate_ops, rank_ops = OpCounters(), OpCounters()
    for n, probes in _pin_nodes():
        for x in probes:
            n.locate(x, locate_ops)
            n.rank(x, rank_ops)
    assert (locate_ops.word_ops, locate_ops.key_compares) == PIN_LOCATE
    assert (rank_ops.word_ops, rank_ops.key_compares) == PIN_RANK
    rng = random.Random(PIN_SEED)
    data = [rng.getrandbits(64) for _ in range(20_000)]
    for sort, pinned in ((fusion_sort_with_stats, PIN_FUSION_SORT),
                         (btree_sort_with_stats, PIN_BTREE_SORT)):
        out, tree = sort(data)
        assert out == sorted(data)
        c = tree.counters
        assert (c.word_ops, c.key_compares, tree.height, tree.splits) == pinned


# Per-op read totals (word_ops, key_compares) over _pin_read_probes(),
# recorded from the tree code before its four reads were folded into one
# descent; any change to what a tree-level read charges moves them.
PIN_READS = {
    "fusion-multiplicative": {"search": (29241, 1659), "rank": (30745, 1659),
                              "predecessor": (29241, 1659),
                              "successor": (29241, 1659)},
    "fusion-exact": {"search": (43008, 1659), "rank": (44512, 1659),
                     "predecessor": (43008, 1659), "successor": (43008, 1659)},
    "btree": {"search": (0, 2809), "rank": (1504, 2809),
              "predecessor": (0, 2809), "successor": (0, 2809)},
}


def _pin_read_trees():
    return {"fusion-multiplicative": FusionTree(width=32, strategy=MULTIPLICATIVE),
            "fusion-exact": FusionTree(width=32, strategy=EXACT),
            "btree": BTree(width=32)}


def _pin_read_probes(keys):
    """Members, their neighbours (mostly non-members), random words, and
    keys below the minimum and above the maximum."""
    rng = random.Random(PIN_SEED)
    top = (1 << 32) - 1
    probes = [0, min(keys) - 1, max(keys) + 1, top]
    for k in rng.sample(keys, 60):
        probes += [k, k - 1, k + 1]
    probes += [rng.getrandbits(32) for _ in range(60)]
    return probes


def _model_answer(ks, op, x):
    if op == "search":
        i = bisect_left(ks, x)
        return i < len(ks) and ks[i] == x
    if op == "rank":
        return bisect_right(ks, x)
    if op == "predecessor":
        i = bisect_right(ks, x)
        return ks[i - 1] if i else None
    i = bisect_left(ks, x)
    return ks[i] if i < len(ks) else None


def test_read_charges_pinned():
    rng = random.Random(PIN_SEED)
    keys = list({2 + rng.getrandbits(32) % ((1 << 32) - 4) for _ in range(700)})
    rng.shuffle(keys)
    probes = _pin_read_probes(keys)
    ks = sorted(keys)
    got = {}
    for name, tree in _pin_read_trees().items():
        for op in ("search", "rank", "predecessor", "successor"):  # empty tree
            assert getattr(tree, op)(5) == _model_answer([], op, 5)
        assert tree.counters.snapshot() == (0, 0)
        for k in keys:
            tree.insert(k)
        got[name] = {}
        for op in ("search", "rank", "predecessor", "successor"):
            before = tree.counters.snapshot()
            for x in probes:
                assert getattr(tree, op)(x) == _model_answer(ks, op, x), (name, op, x)
            after = tree.counters.snapshot()
            got[name][op] = (after[0] - before[0], after[1] - before[1])
    assert got == PIN_READS
