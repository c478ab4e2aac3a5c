"""Pieces shared by the untraced and the traced runs.

Workload specs, the failure tally, the box-speed calibration,
sketch-cache control, and the seeded query-mix generator with its
sorted-list model.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter_ns as now_ns

from fusionsort import sketch

CAP = 7
SETUP_REPS = 5  # set-up steps are repeated and their median reported
BUILD_REPS = 3  # ... except the query-mix tree builds, which take seconds
CHUNK = 1000  # query-mix ops between two clock reads
COUNT_PREFIX = 20 * CHUNK  # query-mix ops whose charged counters are reported
READS = ("search", "rank", "predecessor", "successor")


@dataclass(frozen=True)
class Spec:
    dist: str
    n: int
    width: int
    insert_share: float  # share of mix ops that insert; 0 for sort workloads


SPECS = {
    "sort_uniform64": Spec("uniform", 100_000, 64, 0.0),
    "sort_dense8": Spec("duplicates", 1_000_000, 8, 0.0),
    "query_mix": Spec("uniform", 100_000, 64, 0.1),
}


@dataclass
class Tally:
    """Checked outputs: each check is one attempt, each wrong one a failure."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    def ok_share(self) -> float:
        return (self.attempted - self.failed) / max(1, self.attempted)


# -- box speed ----------------------------------------------------------------
#
# The box this benchmark runs on changes speed by up to 1.6x for seconds
# to minutes at a time, because of load from outside the process.  A
# fixed pure-Python loop slows down with it, so every measured unit is
# bracketed by timings of that loop and its time is rescaled to a box on
# which the loop takes CAL_REF_NS.  Changes to the program cannot change
# the loop, so the rescaling cancels box drift and keeps their effect.

CAL_ITERS = 4000
CAL_REF_NS = 700_000  # the loop's time on the box the benchmark was made on


def _cal_loop() -> int:
    x, s = 12345, 0
    for _ in range(CAL_ITERS):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        s ^= x >> 40
    return s


def calibration_ns() -> int:
    """Median of three timings of the calibration loop."""
    times = []
    for _ in range(3):
        t0 = now_ns()
        _cal_loop()
        times.append(now_ns() - t0)
    return sorted(times)[1]


class Speed:
    """Rescales measured times to the reference box.

    Call ``factor()`` right after each measured unit: it samples the loop
    again and returns the scale for the unit just ended, from the mean of
    the samples before and after it.
    """

    def __init__(self):
        self.last = calibration_ns()
        self.samples = [self.last]

    def factor(self) -> float:
        cur = calibration_ns()
        f = 2 * CAL_REF_NS / (self.last + cur)
        self.last = cur
        self.samples.append(cur)
        return f


def cold_caches() -> None:
    """Empty the process-global sketch caches, as a fresh process has them."""
    sketch._scheme_cached.cache_clear()
    sketch._find_multiplier_cached.cache_clear()


def pct(values, q: float) -> float:
    """Nearest-rank percentile, q in [0, 1]."""
    xs = sorted(values)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


# -- query mix ----------------------------------------------------------------


def mix_ops(rng, present: list, known: set, count: int, width: int,
            insert_share: float) -> list:
    """``count`` seeded (op, key) pairs.  Inserts draw fresh keys; reads
    are spread evenly over READS, half of them probing a stored key."""
    ops = []
    for _ in range(count):
        if rng.random() < insert_share:
            k = rng.getrandbits(width)
            while k in known:
                k = rng.getrandbits(width)
            known.add(k)
            present.append(k)
            ops.append(("insert", k))
        else:
            op = READS[rng.randrange(4)]
            if rng.random() < 0.5:
                k = present[rng.randrange(len(present))]
            else:
                k = rng.getrandbits(width)
            ops.append((op, k))
    return ops


def run_chunk(ftree, btree, ops, fans: list, bans: list) -> tuple[int, int]:
    """Serve ops closed-loop on the fusion tree, then on the B-tree (reads
    as ``search``, the only read it has).  Appends the answers, or the
    exception a call raised, which matches no answer; returns the two
    elapsed times in ns."""
    fcall = {op: getattr(ftree, op) for op in READS + ("insert",)}
    bsearch, binsert = btree.search, btree.insert
    t0 = now_ns()
    for op, k in ops:
        try:
            fans.append(fcall[op](k))
        except Exception as exc:  # a raised answer is counted, not fatal
            fans.append(exc)
    t1 = now_ns()
    for op, k in ops:
        try:
            bans.append(binsert(k) if op == "insert" else bsearch(k))
        except Exception as exc:
            bans.append(exc)
    return t1 - t0, now_ns() - t1


class Model:
    """Sorted-list reference for every tree operation."""

    def __init__(self, keys):
        self.keys = sorted(keys)

    def answer(self, op: str, k: int):
        ks = self.keys
        if op == "search":
            i = bisect_left(ks, k)
            return i < len(ks) and ks[i] == k
        if op == "rank":
            return bisect_right(ks, k)
        if op == "predecessor":
            i = bisect_right(ks, k)
            return ks[i - 1] if i else None
        if op == "successor":
            i = bisect_left(ks, k)
            return ks[i] if i < len(ks) else None
        insort(ks, k)
        return None

    def check(self, ops, fans, bans, tally: Tally) -> None:
        """Check both trees' answers op by op, then apply the op."""
        for (op, k), fa, ba in zip(ops, fans, bans):
            bwant = None if op == "insert" else self.answer("search", k)
            fwant = self.answer(op, k)
            tally.check(type(fa) is type(fwant) and fa == fwant,
                        f"fusion {op}({k}) = {fa!r}, want {fwant!r}")
            tally.check(type(ba) is type(bwant) and ba == bwant,
                        f"btree {op}({k}) = {ba!r}, want {bwant!r}")
