"""Word-RAM integer data structures and a verified sorting benchmark.

Layers, bottom up:

* wordops      -- width-checked word primitives (floor-lg, differing-bit,
                  low-bit masks, packed-block masks)
* trie         -- compressed binary trie, the structural reference for
                  all rank logic
* sketch       -- order-preserving relevant-bit compression, exact and
                  single-multiplication variants
* fusion_node  -- packed sketch word and constant-word-op in-node rank
* fusion_tree  -- shared tree skeleton with check(); packed-node tree, sorter
* btree        -- linear-scan baseline node on that skeleton; its sorter
* bench / cli  -- verified benchmark harness (`bench` console command)
"""

from .btree import BTree, btree_sort, btree_sort_with_stats
from .counters import OpCounters
from .fusion_node import (
    CAP_LIMIT,
    MACHINE_WIDTH,
    CapacityExceeded,
    FusionNode,
    NodeError,
)
from .fusion_tree import FusionTree, fusion_sort, fusion_sort_with_stats
from .sketch import (
    EXACT,
    MULTIPLICATIVE,
    NoValidMultiplier,
    SchemeNotMultiplicative,
    SketchError,
    SketchScheme,
    find_multiplier,
    scheme_from_bits,
    scheme_from_trie,
    sketch_approx,
    sketch_exact,
)
from .trie import CompressedTrie, DuplicateKey, EmptyTrie, TrieError
from .wordops import (
    WIDTHS,
    EqualWords,
    IndexOutOfWidth,
    WordError,
    ZeroWord,
    block_leading_bits_mask,
    block_low_bits_mask,
    check_word,
    clear_low_bits,
    delta,
    msb,
    msb_debruijn,
    set_low_bits,
    trailing_ones_mask,
    word_mask,
)

__version__ = "0.1.0"

__all__ = [
    "BTree", "btree_sort", "btree_sort_with_stats",
    "OpCounters",
    "CAP_LIMIT", "MACHINE_WIDTH", "CapacityExceeded", "FusionNode",
    "NodeError",
    "FusionTree", "fusion_sort", "fusion_sort_with_stats",
    "EXACT", "MULTIPLICATIVE", "NoValidMultiplier", "SchemeNotMultiplicative",
    "SketchError", "SketchScheme", "find_multiplier", "scheme_from_bits",
    "scheme_from_trie", "sketch_approx", "sketch_exact",
    "CompressedTrie", "DuplicateKey", "EmptyTrie", "TrieError",
    "WIDTHS", "EqualWords", "IndexOutOfWidth", "WordError", "ZeroWord",
    "block_leading_bits_mask", "block_low_bits_mask", "check_word",
    "clear_low_bits", "delta", "msb", "msb_debruijn", "set_low_bits",
    "trailing_ones_mask", "word_mask",
    "__version__",
]
