import itertools
import random
from collections import Counter
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionsort.btree import BTree, btree_sort_with_stats
from fusionsort.counters import OpCounters
from fusionsort.fusion_node import _LAYOUTS, CapacityExceeded, FusionNode, NodeError
from fusionsort.fusion_tree import FusionTree, fusion_sort_with_stats
from fusionsort.sketch import EXACT, MULTIPLICATIVE
from fusionsort.trie import CompressedTrie, DuplicateKey
from fusionsort.wordops import WIDTHS

import oracles
from oracles import block_leading_bits_mask, block_low_bits_mask
from visit_census import PATHS, exit_path

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
    with pytest.raises(NodeError, match="unsupported width"):
        FusionNode([1], width=24)
    with pytest.raises(NodeError, match="unknown sketch strategy"):
        FusionNode([1], width=64, strategy="approx")


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
    # and all 172 entries of the packing table: one row per node size t,
    # one entry per padded length 0..64 // t - 1
    assert [len(row) for row in _LAYOUTS] == [0] + [64 // t for t in range(1, 9)]
    for t, row in enumerate(_LAYOUTS):
        for plen, (t_, block, lenmask, unit, top_mask, word_bits) in enumerate(row):
            assert (t_, block, lenmask) == (t, plen + 1, (1 << plen) - 1)
            assert unit == block_low_bits_mask(plen + 1, t, 64)
            assert top_mask == block_leading_bits_mask(plen + 1, t, 64)
            assert word_bits == t * (plen + 1) <= 64


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
            want = oracles.trs(trie, x)
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


def _probed_nodes(rng, per_shape, ends=True):
    """per_shape nodes of t = 1..8 random keys for each width and sketch
    strategy, each with its sorted probes: the keys and their neighbours,
    8 random words, and both ends of the word if ``ends``."""
    for width in WIDTHS:
        top = (1 << width) - 1
        for t in range(1, 9):
            for strategy in (EXACT, MULTIPLICATIVE):
                for _ in range(per_shape):
                    keys = set()
                    while len(keys) < t:
                        keys.add(rng.getrandbits(width))
                    keys = sorted(keys)
                    probes = {0, top} if ends else set()
                    probes.update(min(top, max(0, k + d)) for k in keys for d in (-1, 0, 1))
                    probes.update(rng.getrandbits(width) for _ in range(8))
                    yield FusionNode(keys, width=width, cap=8, strategy=strategy), sorted(probes)


def test_locate_matches_loop_oracle():
    # the straight-line passes answer, charge and trace probe for probe
    # as the loop form in tests/oracles.py does
    exits = Counter()
    for n, probes in _probed_nodes(random.Random(PIN_SEED + 1), 6):
        keys, t = n.keys, len(n.keys)
        for x in probes:
            got_ops, want_ops = OpCounters(), OpCounters()
            got_trace, want_trace = {}, {}
            got = n.locate(x, got_ops, got_trace)
            want = oracles.locate(n, x, want_ops, want_trace)
            assert (got, got_ops.snapshot(), got_trace) == (
                want, want_ops.snapshot(), want_trace), (keys, n.strategy, x)
            assert got == (scan_rank(keys, x), x in keys)
            exits[exit_path(n, x, got, got_trace)] += 1
            if t > 1 and got_trace["count"] == t:
                exits["pass 1 with no survivor"] += 1
    assert set(exits) == {*PATHS, "pass 1 with no survivor"}, exits


# Charge (word ops plus key compares) minus the operations a counting word
# runs, per exit of locate, in the order of scripts/visit_census.py's PATHS.  Words are the query x and every value locate
# computes from it by a word op: the sketches, the survivor word, the xor
# values, the fall-off mask and the forced word y.  Control values are
# compare results and indices (c, j), as are t, kc and the loop state;
# the node word, its masks and the keys are constants.  Each gap is
# charged work that no word op runs:
#   member: keys[c] == x is charged as the probe and the membership
#     compare, and one executed compare answers both (+1);
#   neighbour test: 4 charged (xor, direction test, neighbour xor and its
#     compare); the neighbour xor acts on two keys, not on a word, so 3
#     run (x ^ s, x > s, the compare) (+1); with no neighbour on x's side
#     only the first two run (+2);
#   far-end test (every visit past the neighbour test): 2 charged (the
#     far key's xor and its compare); the xor acts on two keys, not on a
#     word, so only the compare runs (+1);
#   fall-off: 8 charged (xor, floor-lg, shift, bit test; shl, add, sub,
#     or/and-not), of which the neighbour test already ran the xor and
#     x > s; 4 more run going up (bit_length, 1 << n, - 1, x | m) and 3
#     going down (bit_length, >> n, << n): +2, +3;
#   exit or pass 2: the membership compare is charged whenever the rank
#     is nonzero and never run, as x is known not stored there (+1).
# An exact sketch charges 4 per relevant bit and its first shift acts on
# the constant 0, not on a word: +1 per sketch on exact nodes.
CHARGE_GAP = dict(zip(PATHS, (
    0,                 # t = 1
    1,                 # member in pass 1
    1 + 1, 1 + 1,      # neighbour exit up, down
    2 + 1, 2,          # neighbour exit up past the last key, down to rank 0
    1 + 1 + 1, 1 + 1,  # far-end exit up to the last key, down to rank 0
    1 + 1 + 2 + 1, 1 + 1 + 3 + 1), strict=True))  # pass 2 up, down
# sketches computed per path: none at t = 1, two in pass 2, one elsewhere
SKETCHES = {path: 0 if path == "t = 1" else 2 if path.startswith("pass 2") else 1
            for path in PATHS}


def test_charges_match_executed_word_ops():
    # locate runs on a counting word: every exit's charge is its executed
    # count plus a fixed gap, and on multiplicative nodes the executed
    # count of each branch path and sketch form (single shift or
    # multiplied: two code paths) is one number for every t and width
    executed = {}  # multiplicative: (path, form, ...) -> {count: {(t, width)}}
    for n, probes in _probed_nodes(random.Random(PIN_SEED + 2), 6):
        t, exact = len(n.keys), n.scheme.multiplier is None
        for x in probes:
            trace = {}
            answer = n.locate(x, OpCounters(), trace)
            path = exit_path(n, x, answer, trace)
            ops, tally = OpCounters(), [0]
            assert n.locate(oracles.CountingWord(x, tally), ops) == answer
            ran = tally[0]
            gap = CHARGE_GAP[path] + exact * SKETCHES[path]
            assert ops.word_ops + ops.key_compares - ran == gap, (n.keys, x, path)
            if not exact and t > 1:
                branches = (path, n.scheme.multiplier == 1, trace["survivors"] != 0,
                            0 < trace["count"] < t, answer[0] < t)
                executed.setdefault(branches, {}).setdefault(ran, set()).add((t, n.width))
    assert {b[0] for b in executed} == set(CHARGE_GAP) - {"t = 1"}
    assert {b[1] for b in executed} == {True, False}  # both sketch forms ran
    for branches, counts in executed.items():
        assert len(counts) == 1, (branches, counts)
    shapes = set().union(*(s for c in executed.values() for s in c.values()))
    assert shapes == {(t, w) for t in range(2, 9) for w in WIDTHS}


def _clustered_nodes(rng):
    """24 nodes per width, strategy and t = 2..8, alternately of random
    keys and of keys sharing long prefixes, each with its probes: both
    ends of the word, the keys' neighbours and 4 random words."""
    for width in WIDTHS:
        top = (1 << width) - 1
        for strategy in (EXACT, MULTIPLICATIVE):
            for t in range(2, 9):
                for clustered in (False, True) * 12:
                    base, keys = rng.getrandbits(width), set()
                    while len(keys) < t:  # clustered: long shared prefixes
                        low = rng.getrandbits(rng.randint(1, max(3, width // 4)))
                        keys.add(base ^ low if clustered else rng.getrandbits(width))
                    keys = sorted(keys)
                    n = FusionNode(keys, width=width, cap=8, strategy=strategy)
                    probes = {0, top} | {min(top, max(0, k + d)) for k in keys
                                         for d in (-1, 1)}
                    probes.update(rng.getrandbits(width) for _ in range(4))
                    yield n, keys, probes


def test_neighbour_exit_is_exact():
    # a visit whose selected key's neighbour on x's side branches from it
    # above the fall-off bit (or is missing) ends after pass 1, at the
    # rank bisect_right gives; every other non-member visit goes on to the
    # far-end test, and maybe pass 2, and is charged more
    taken = Counter()
    for n, keys, probes in _clustered_nodes(random.Random(PIN_SEED + 3)):
        t = len(keys)
        for x in probes:
            ops, trace = OpCounters(), {}
            answer = n.locate(x, ops, trace)
            assert answer == (bisect_right(keys, x), x in keys)
            path = exit_path(n, x, answer, trace)
            c = trace["count"]
            # pass 1, the xor compare if it ran, and the exit's 4
            exit_charge = trace["word_ops"] + 3 * (0 < c < t) + 4
            if path.startswith("neighbour exit"):
                assert ops.word_ops == exit_charge, (keys, x)
                assert not answer[1]
                taken[path] += 1
            elif not answer[1]:  # the far-end test ran, and maybe pass 2
                assert ops.word_ops > exit_charge, (keys, x)
    assert set(taken) == {"neighbour exit up", "neighbour exit down",
                          "neighbour exit up past the last key",
                          "neighbour exit down to rank 0"}, taken


def test_far_end_exit_is_exact():
    # past the neighbour test, a visit whose run reaches the last key
    # (going up) or the first (going down) ends at rank t or 0, as
    # bisect_right gives, charged 2 word ops on top of the neighbour
    # test's 4; every visit that still runs pass 2 ranks strictly inside
    # the node, so pass 2 needs no saturation exit and no zero-survivor
    # branch.  The exit's `<` against `<=` is not tested: the two differ
    # only if the far key's xor equals x ^ s, so the far key is x, and
    # pass 1 already returns a stored x as a member.
    taken = Counter()
    for n, keys, probes in _clustered_nodes(random.Random(PIN_SEED + 4)):
        t = len(keys)
        for x in probes:
            ops, trace = OpCounters(), {}
            answer = n.locate(x, ops, trace)
            rank = bisect_right(keys, x)
            assert answer == (rank, x in keys), (keys, x)
            path = exit_path(n, x, answer, trace)
            c = trace["count"]
            # pass 1, the xor compare if it ran, the neighbour test's 4
            # and the far-end test's 2
            exit_charge = trace["word_ops"] + 3 * (0 < c < t) + 4 + 2
            if path.startswith("far-end exit"):
                assert rank == (t if x > trace["selected"] else 0)
                assert ops.word_ops == exit_charge, (keys, x)
                # the probe compare if c < t, the membership compare if
                # the rank is nonzero
                assert ops.key_compares == (c < t) + (rank > 0), (keys, x)
            elif path.startswith("pass 2"):
                assert 0 < rank < t, (keys, x)
                assert ops.word_ops > exit_charge, (keys, x)
            taken[path] += 1
    assert {"far-end exit up to the last key", "far-end exit down to rank 0",
            "pass 2 up", "pass 2 down"} <= set(taken), taken


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
    assert "sketch form" not in text  # exact: per-bit extraction
    # a multiplicative node names its sketch form and per-sketch charge
    single = golden_node(MULTIPLICATIVE)
    assert single.scheme.multiplier == 1
    assert "sketch form: single shift: and, shr (2 word ops per sketch)" in single.dump()
    spread = FusionNode([0, 1 << 40, (1 << 40) | 1], width=64)
    assert spread.scheme.multiplier not in (None, 1)
    assert "sketch form: and, mul, shr, and (4 word ops per sketch)" in spread.dump()


# -- charge pinning ------------------------------------------------------------
# Totals recorded from the node code before the rank path was folded into
# one body; any change to what locate() or rank() charges moves them.

PIN_SEED = 20261018
PIN_LOCATE = (106572, 10030)  # (word_ops, key_compares)
PIN_RANK = (106572, 5304)
PIN_FUSION_SORT = (1669841, 199536, 6, 4336)  # (word_ops, key_compares, height, splits)
PIN_BTREE_SORT = (0, 315643, 6, 4336)


def test_charges_pinned():
    locate_ops, rank_ops = OpCounters(), OpCounters()
    for n, probes in _probed_nodes(random.Random(PIN_SEED), 4, ends=False):
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
    "fusion-multiplicative": {"search": (14245, 1659), "rank": (15749, 1659),
                              "predecessor": (14245, 1659),
                              "successor": (14245, 1659)},
    "fusion-exact": {"search": (23397, 1659), "rank": (24901, 1659),
                     "predecessor": (23397, 1659), "successor": (23397, 1659)},
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
