#!/usr/bin/env python3
"""Inspect the packed anatomy of a single node for a given key set.

Prints the debug dump (keys, relevant bits, sketch form, sketches, packed
word), the compressed trie as DOT if asked, and traces one query through
the node's rank path, printing pass 1's subtract/mask/floor-lg values and
the word ops the whole visit charges.

    python3 scripts/node_anatomy.py --keys 223 224 225 254 --width 16 --query 231
"""

import argparse

from fusionsort.counters import OpCounters
from fusionsort.fusion_node import FusionNode
from fusionsort.sketch import STRATEGIES
from fusionsort.trie import CompressedTrie


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--keys", type=int, nargs="+", required=True)
    ap.add_argument("--width", type=int, default=64)
    ap.add_argument("--query", type=int)
    ap.add_argument("--strategy", choices=STRATEGIES, default="exact")
    ap.add_argument("--dot", metavar="PATH", help="write the compressed trie")
    args = ap.parse_args()

    node = FusionNode(sorted(args.keys), width=args.width, cap=8,
                      strategy=args.strategy)
    print(node.dump())
    if args.query is not None:
        x = args.query
        trace: dict = {}
        ops = OpCounters()
        rank, _ = node.locate(x, ops, trace)
        wq = trace["sketch"] * node._unit
        print(f"\nquery {x} (sketch {trace['sketch']}):")
        print(f"  query word     = {wq}")
        print(f"  difference     = {node.node_word - wq}")
        print(f"  masked         = {trace['survivors']}")
        print(f"  sketches below = {trace['count']}")
        print(f"  shares prefix  = {trace['selected']}")
        print(f"  rank           = {rank}")
        print(f"  word ops       = {ops.word_ops}")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(CompressedTrie(sorted(args.keys), width=args.width).to_dot())
        print(f"\nwrote {args.dot}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
