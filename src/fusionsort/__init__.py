"""Word-RAM integer data structures and a verified sorting benchmark.

Layers, bottom up:

* wordops      -- width-checked words: the supported widths and the
                  word check
* trie         -- compressed binary trie, the structural reference for
                  all rank logic: build, descent, rank, branch-bit
                  walks and DOT
* sketch       -- order-preserving relevant-bit compression, exact and
                  single-multiplication variants
* fusion_node  -- packed sketch word; one two-pass, constant-word-op
                  in-node rank (locate)
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
    SketchError,
    SketchScheme,
    find_multiplier,
    scheme_from_bits,
)
from .trie import CompressedTrie, DuplicateKey, TrieError
from .wordops import (
    WIDTHS,
    WordError,
    check_word,
)

__version__ = "0.1.0"

__all__ = [
    "BTree", "btree_sort", "btree_sort_with_stats",
    "OpCounters",
    "CAP_LIMIT", "MACHINE_WIDTH", "CapacityExceeded", "FusionNode",
    "NodeError",
    "FusionTree", "fusion_sort", "fusion_sort_with_stats",
    "EXACT", "MULTIPLICATIVE", "NoValidMultiplier", "SketchError",
    "SketchScheme", "find_multiplier", "scheme_from_bits",
    "CompressedTrie", "DuplicateKey", "TrieError",
    "WIDTHS", "WordError", "check_word",
    "__version__",
]
