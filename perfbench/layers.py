"""Traced run: per-layer metrics from spans recorded by the benchmark.

Spans are taken around the public entry points of ``bench``,
``fusion_tree``, ``btree``, ``fusion_node`` and ``sketch``, either by
patching the entry point for the duration of the run or by reading the
clock around a direct call.  ``trie`` (a test oracle), ``wordops``
(reached only through ``check_word`` inside the tree spans) and ``cli``
get no span of their own.  Spans stay in memory and are written to
``<out>/spans-<workload>.csv`` when the run ends.

The run sorts the workload's input untraced, traced, and untraced again,
each from cold sketch caches; traced over the second untraced time is
the tracing overhead.  It times ``mergesort`` and ``stdsort`` through
``bench.run()``, replays the tree's node population through
``FusionNode`` and ``scheme_from_bits``, and sends seeded query probes
(the workload's own mix for ``query_mix``) to both trees until
``--seconds`` have passed.  Times here are as measured, not rescaled;
``calibration.loop_us`` gives the box's speed during the run.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from pathlib import Path

from fusionsort import bench
from fusionsort.btree import BTree
from fusionsort.counters import OpCounters
from fusionsort.fusion_node import MACHINE_WIDTH, FusionNode
from fusionsort.fusion_tree import FusionTree
from fusionsort.sketch import EXACT, _scheme_cached, scheme_from_bits

from .core import (CHUNK, READS, SPECS, Model, Tally, calibration_ns,
                   cold_caches, median, mix_ops, now_ns, pct, run_chunk)
from .workloads import build_trees, counts, sort_config, sort_once


NODE_SAMPLE = 4000  # nodes rebuilt and rank-probed by the node replay
PROBE_OPS = 20_000  # traced query probes


class Tracer:
    """In-memory spans in columns; a span's id is its index.

    A span's parent is the span open when it started (-1 at top level);
    its trace is the id of the top-level span it belongs to.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("h")
        self.parent = array("q")
        self.trace = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self._open: list[int] = []

    def _start(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        sid = len(self.t0)
        parent = self._open[-1] if self._open else -1
        self.name_of.append(self.names.index(name))
        self.parent.append(parent)
        self.trace.append(self.trace[parent] if parent >= 0 else sid)
        self.t0.append(0)
        self.t1.append(0)
        return sid

    def add(self, name: str, t0: int, t1: int) -> None:
        """A span whose clock readings the caller took itself."""
        sid = self._start(name)
        self.t0[sid], self.t1[sid] = t0, t1

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            sid = self._start(name)
            self._open.append(sid)
            self.t0[sid] = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.t1[sid] = now_ns()
                self._open.pop()
        return traced

    @contextmanager
    def patched(self, targets):
        """Trace each (owner, attribute, span name) until the block ends."""
        saved = []
        try:
            for owner, attr, name in targets:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(orig, name))
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def self_ns(self) -> array:
        """Each span's duration minus the durations of its children."""
        own = array("q", (b - a for a, b in zip(self.t0, self.t1)))
        out = array("q", own)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= own[sid]
        return out

    def by_name(self, values) -> dict:
        out = {name: [] for name in self.names}
        for i, v in zip(self.name_of, values):
            out[self.names[i]].append(v)
        return out

    def write(self, path: Path, self_ns) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,parent,trace,name,t0_ns,t1_ns,self_ns\n")
            for sid in range(len(self.t0)):
                fh.write(f"{sid},{self.parent[sid]},{self.trace[sid]},"
                         f"{self.names[self.name_of[sid]]},{self.t0[sid]},"
                         f"{self.t1[sid]},{self_ns[sid]}\n")


def _timed_run(cfg, tally: Tally, run=None):
    """``sort_once`` and its elapsed seconds."""
    t0 = now_ns()
    rec = sort_once(cfg, tally, run)
    return rec, (now_ns() - t0) / 1e9


def _nodes(tree) -> list:
    out, stack = [], [tree.root] if tree.root is not None else []
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children or ())
    return out


def replay_nodes(tracer, tree, rng, tally: Tally) -> tuple[dict, dict]:
    """Describe every node of ``tree`` and harvest its scheme; rebuild and
    rank-probe fresh copies of a seeded sample of them, under the tree's
    strategy and under the exact one.  Returns ({(relevant bits,
    budget): scheme}, node-layer metrics)."""
    width = tree.width
    nodes = _nodes(tree)
    schemes = {}
    fallbacks = fill = 0
    for node in nodes:
        scheme = node.scheme
        fallbacks += scheme.fallback
        fill += len(node.keys)
        schemes[(scheme.relevant_bits,
                 MACHINE_WIDTH // len(node.keys) - 1)] = scheme
    ops = OpCounters()
    ranks = 0
    for old in rng.sample(nodes, min(len(nodes), NODE_SAMPLE)):
        keys = list(old.keys)
        probes = [keys[rng.randrange(len(keys))]]
        probes.append(probes[0] ^ 1)
        probes += [rng.getrandbits(width), rng.getrandbits(width)]
        want = [bisect_right(keys, x) for x in probes]
        for strategy, name in ((tree.strategy, "fusion_node.rank"),
                               (EXACT, "fusion_node.rank_exact")):
            node = FusionNode(keys, width=width, cap=tree.cap,
                              strategy=strategy)
            t0 = now_ns()
            node.node_word  # first access after construction: one rebuild
            t1 = now_ns()
            counter = None
            if strategy == tree.strategy:
                tracer.add("fusion_node.rebuild", t0, t1)
                counter = ops
                ranks += len(probes)
            for x, w in zip(probes, want):
                t0 = now_ns()
                got = node.rank(x, counter)
                tracer.add(name, t0, now_ns())
                tally.check(got == w, f"{name}({x}) = {got}, want {w}")
    return schemes, {
        "fusion_node.word_ops_per_rank": ops.word_ops / max(1, ranks),
        "fusion_node.count": len(nodes),
        "fusion_node.fill_mean": fill / len(nodes) / tree.cap,
        "fusion_node.fallback_share": fallbacks / len(nodes),
    }


def replay_schemes(tracer, schemes: dict, width: int, strategy: str,
                   tally: Tally) -> None:
    """Rebuild every harvested scheme once from cold caches."""
    cold_caches()
    for (bits, budget), want in sorted(schemes.items()):
        t0 = now_ns()
        got = scheme_from_bits(bits, width, strategy, budget)
        tracer.add("sketch.scheme", t0, now_ns())
        tally.check(got == want, f"scheme_from_bits{bits, budget} = {got}")


def per_layer(name: str, seed: int, seconds: float, tally: Tally,
              out_dir: Path) -> dict:
    spec = SPECS[name]
    start = now_ns()
    cal = [calibration_ns()]
    tracer = Tracer()

    untraced, _ = _timed_run(sort_config(spec, "fusion", seed), tally)
    cache = _scheme_cached.cache_info()

    trees = []
    targets = [
        (bench, "generate", "bench.generate"),
        (bench, "fusion_sort_with_stats", "fusion_tree.sort"),
        (bench, "btree_sort_with_stats", "btree.sort"),
        (FusionTree, "insert", "fusion_tree.insert"),
        (FusionTree, "in_order", "fusion_tree.in_order"),
        (BTree, "insert", "btree.insert"),
        (BTree, "in_order", "btree.in_order"),
    ]
    run = tracer.wrap(bench.run, "bench.run")
    with _capturing(trees), tracer.patched(targets):
        traced, traced_s = _timed_run(sort_config(spec, "fusion", seed),
                                      tally, run)
        _timed_run(sort_config(spec, "btree", seed), tally, run)
    # The overhead base runs after the traced sort, so that neither pays
    # the first sort's warm-up of the process.
    _, untraced_s = _timed_run(sort_config(spec, "fusion", seed), tally)
    if untraced is not None and traced is not None:
        tally.check(counts(traced) == counts(untraced),
                    f"fusion counters {counts(traced)} != {counts(untraced)}")
    mergesort, _ = _timed_run(sort_config(spec, "mergesort", seed), tally)
    stdsort, _ = _timed_run(sort_config(spec, "stdsort", seed), tally)
    if len(trees) != 2:  # a sort raised; its failure is already counted
        _, ftree, btree = build_trees(spec, seed)
    else:
        ftree, btree = trees

    rng = random.Random(f"layers:{seed}")
    schemes, node_metrics = replay_nodes(tracer, ftree, rng, tally)
    replay_schemes(tracer, schemes, ftree.width, ftree.strategy, tally)

    shape = {"fusion_tree.height": ftree.height,
             "fusion_tree.splits": ftree.splits}

    # Query probes on the sorted trees until the run's time is used up.
    # Only the first PROBE_OPS are traced, which bounds the span count;
    # the rest are still checked.
    keys = ftree.in_order()
    model = Model(keys)
    present, known = list(keys), set(keys)
    queries = [(FusionTree, op, f"fusion_tree.{op}") for op in READS]
    queries.append((BTree, "search", "btree.search"))
    probed = 0
    while probed < PROBE_OPS or now_ns() - start < seconds * 1e9:
        ops = mix_ops(rng, present, known, CHUNK, spec.width,
                      spec.insert_share)
        fans, bans = [], []
        with tracer.patched(queries if probed < PROBE_OPS else ()):
            run_chunk(ftree, btree, ops, fans, bans)
        model.check(ops, fans, bans, tally)
        probed += len(ops)

    cal.append(calibration_ns())
    self_ns = tracer.self_ns()
    dur = tracer.by_name(b - a for a, b in zip(tracer.t0, tracer.t1))
    own = tracer.by_name(self_ns)
    tracer.write(out_dir / f"spans-{name}.csv", self_ns)
    for span in SPANS:  # a failed call leaves its span out; report 0
        dur.setdefault(span, [0])
        own.setdefault(span, [0])

    def p50_us(span):
        return median(dur[span]) / 1e3

    def p99_us(span):
        return pct(dur[span], 0.99) / 1e3

    sketch_ns = dur["sketch.scheme"]
    hit_rate = cache.hits / max(1, cache.hits + cache.misses)
    m = {
        "fusion_node.rank_ns_p50": p50_us("fusion_node.rank") * 1e3,
        "fusion_node.rank_exact_ns_p50": p50_us("fusion_node.rank_exact") * 1e3,
        "fusion_node.rebuild_us_p50": p50_us("fusion_node.rebuild"),
        "fusion_node.rebuild_us_p99": p99_us("fusion_node.rebuild"),
        **node_metrics,
        "sketch.scheme_us_p50": median(sketch_ns) / 1e3,
        "sketch.search_s_total": sum(sketch_ns) / 1e9,
        "sketch.search_ms_max": max(sketch_ns) / 1e6,
        "sketch.distinct_schemes": len(sketch_ns),
        "sketch.cache_hit_rate": hit_rate,
        "fusion_tree.insert_us_p50": p50_us("fusion_tree.insert"),
        "fusion_tree.insert_us_p99": p99_us("fusion_tree.insert"),
        "fusion_tree.in_order_ms": sum(dur["fusion_tree.in_order"]) / 1e6,
        "fusion_tree.sort_self_s": sum(own["fusion_tree.sort"]) / 1e9,
        **{f"fusion_tree.{op}_us_p50": p50_us(f"fusion_tree.{op}")
           for op in READS},
        **shape,
        "btree.insert_us_p50": p50_us("btree.insert"),
        "btree.search_us_p50": p50_us("btree.search"),
        "btree.in_order_ms": sum(dur["btree.in_order"]) / 1e6,
        "btree.sort_self_s": sum(own["btree.sort"]) / 1e9,
        "bench.generate_s": median(dur["bench.generate"]) / 1e9,
        "bench.verify_s": median(own["bench.run"]) / 1e9,
        "bench.stdsort_us_per_key":
            stdsort.wall_time_ns / spec.n / 1e3 if stdsort else 0.0,
        "bench.mergesort_us_per_key":
            mergesort.wall_time_ns / spec.n / 1e3 if mergesort else 0.0,
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "calibration.loop_us": median(cal) / 1e3,
    }
    return m


@contextmanager
def _capturing(trees: list):
    """Keep the tree each sorter called by ``bench.run()`` returns."""
    def capture(sorter):
        def call(*args, **kwargs):
            out = sorter(*args, **kwargs)
            trees.append(out[1])
            return out
        return call

    saved = bench.fusion_sort_with_stats, bench.btree_sort_with_stats
    bench.fusion_sort_with_stats = capture(saved[0])
    bench.btree_sort_with_stats = capture(saved[1])
    try:
        yield
    finally:
        bench.fusion_sort_with_stats, bench.btree_sort_with_stats = saved


SPANS = (
    "bench.run", "bench.generate", "fusion_tree.sort", "fusion_tree.insert",
    "fusion_tree.in_order", "btree.sort", "btree.insert", "btree.in_order",
    "btree.search", "fusion_node.rank", "fusion_node.rank_exact",
    "fusion_node.rebuild", "sketch.scheme",
) + tuple(f"fusion_tree.{op}" for op in READS)

UNITS = {
    "fusion_node.rank_ns_p50": "ns",
    "fusion_node.rank_exact_ns_p50": "ns",
    "fusion_node.word_ops_per_rank": "count",
    "fusion_node.rebuild_us_p50": "us",
    "fusion_node.rebuild_us_p99": "us",
    "fusion_node.count": "count",
    "fusion_node.fill_mean": "ratio",
    "fusion_node.fallback_share": "ratio",
    "sketch.scheme_us_p50": "us",
    "sketch.search_s_total": "s",
    "sketch.search_ms_max": "ms",
    "sketch.distinct_schemes": "count",
    "sketch.cache_hit_rate": "ratio",
    "fusion_tree.insert_us_p50": "us",
    "fusion_tree.insert_us_p99": "us",
    "fusion_tree.in_order_ms": "ms",
    "fusion_tree.sort_self_s": "s",
    "fusion_tree.search_us_p50": "us",
    "fusion_tree.rank_us_p50": "us",
    "fusion_tree.predecessor_us_p50": "us",
    "fusion_tree.successor_us_p50": "us",
    "fusion_tree.height": "count",
    "fusion_tree.splits": "count",
    "btree.insert_us_p50": "us",
    "btree.search_us_p50": "us",
    "btree.in_order_ms": "ms",
    "btree.sort_self_s": "s",
    "bench.generate_s": "s",
    "bench.verify_s": "s",
    "bench.stdsort_us_per_key": "us",
    "bench.mergesort_us_per_key": "us",
    "trace.overhead_ratio": "ratio",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "calibration.loop_us": "us",
}
