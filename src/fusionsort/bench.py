"""Benchmark harness: input generation, verified sort runs, CSV records.

Every run is cross-checked against the built-in sort before a record is
emitted; an unverified run never produces output.  Counters are exact
and deterministic, wall time is whatever the clock says.
"""

from __future__ import annotations

import random
import struct
import time
from collections import namedtuple
from itertools import repeat

from .btree import btree_sort_with_stats
from .counters import OpCounters
from .fusion_node import CAP_LIMIT, FusionNode
from .fusion_tree import fusion_sort_with_stats
from .sketch import EXACT, MULTIPLICATIVE, STRATEGIES
from .trie import CompressedTrie
from .wordops import WIDTHS, WordError, check_word

ALGOS = ("fusion", "btree", "mergesort", "stdsort")
DISTS = ("uniform", "sorted", "reverse", "clustered", "duplicates")

CSV_HEADER = "algo,n,seed,dist,width,cap,trial,wall_time_ns,word_ops,key_compares,height,splits"

KEY_FILE_MAGIC = b"WRDKEYS\x00"  # 8 bytes, followed by one width byte
KEY_FORMATS = {8: "<B", 16: "<H", 32: "<I", 64: "<Q"}  # then little-endian keys


class InvalidConfig(ValueError):
    """Benchmark configuration out of range."""


class BadKeyFile(InvalidConfig):
    """A key file is truncated or holds a line that is not a key."""


class VerificationFailed(RuntimeError):
    """A sorting run disagreed with the reference sort."""


class GoldenMismatch(RuntimeError):
    """The worked-example trace deviated from its known-good constants."""


class BenchConfig(namedtuple(
        "BenchConfig", "algo n seed dist width cap trials strategy",
        defaults=(0, "uniform", 64, 7, 1, MULTIPLICATIVE))):
    """One benchmark run's settings (immutable); ``validate`` checks them."""

    __slots__ = ()

    def validate(self) -> "BenchConfig":
        if self.algo not in ALGOS:
            raise InvalidConfig(f"algo must be one of {ALGOS}, got {self.algo!r}")
        if self.dist not in DISTS:
            raise InvalidConfig(f"dist must be one of {DISTS}, got {self.dist!r}")
        if self.width not in WIDTHS:
            raise InvalidConfig(f"width must be one of {WIDTHS}, got {self.width!r}")
        if self.n < 0:
            raise InvalidConfig(f"n must be nonnegative, got {self.n}")
        if self.trials < 1:
            raise InvalidConfig(f"trials must be at least 1, got {self.trials}")
        if not 3 <= self.cap <= CAP_LIMIT:
            raise InvalidConfig(f"cap must be in [3, {CAP_LIMIT}], got {self.cap}")
        if self.strategy not in STRATEGIES:
            raise InvalidConfig(f"strategy must be one of {STRATEGIES}")
        return self


class BenchRecord(namedtuple(
        "BenchRecord", CSV_HEADER.replace(",", " ") + " verified")):
    """One verified trial: the CSV columns, then ``verified``."""

    __slots__ = ()

    def csv_row(self) -> str:
        return ",".join(map(str, self[:-1]))


# -- input generation ---------------------------------------------------------


def generate(dist: str, n: int, seed: int, width: int) -> list[int]:
    """Deterministic key sequence for (dist, n, seed, width).

    The bulk draws call the bound C ``getrandbits`` through ``map``, and
    ``duplicates`` picks its pool index by ``randrange``'s own rule written
    inline (k = universe.bit_length() bits, redrawn while >= universe), so
    every key is the one the plain per-call loops draw, without the two
    Python frames ``randrange`` puts around each C call.
    """
    if dist not in DISTS:
        raise InvalidConfig(f"unknown distribution {dist!r}")
    if width not in WIDTHS:
        raise InvalidConfig(f"unsupported width {width!r}")
    if n < 0:
        raise InvalidConfig(f"n must be nonnegative, got {n}")
    rng = random.Random(f"{seed}:{dist}:{width}:{n}")  # str seeding is stable
    getbits = rng.getrandbits
    if dist == "uniform":
        return list(map(getbits, repeat(width, n)))
    if dist in ("sorted", "reverse"):
        if n > (1 << width):
            raise InvalidConfig(
                f"cannot draw {n} distinct {width}-bit keys")
        if width < 63:  # range() length must fit a C ssize_t for sample()
            vals = sorted(rng.sample(range(1 << width), n))
        else:
            seen: set[int] = set()
            while len(seen) < n:  # never past the n-th distinct key
                seen.update(map(getbits, repeat(width, n - len(seen))))
            vals = sorted(seen)
        return vals if dist == "sorted" else vals[::-1]
    if dist == "clustered":
        wm = (1 << width) - 1
        jitter = max(1, width // 4)
        centers = [rng.getrandbits(width) for _ in range(max(1, n // 1000))]
        return [(rng.choice(centers) + rng.getrandbits(jitter)) & wm
                for _ in range(n)]
    # duplicates: draw from a deliberately small universe
    universe = max(1, -(-n // 10))
    pool = list(map(getbits, repeat(width, universe)))
    k = universe.bit_length()
    out = []
    append = out.append
    for _ in range(n):
        r = getbits(k)
        while r >= universe:
            r = getbits(k)
        append(pool[r])
    return out


# -- baseline sorts -----------------------------------------------------------


def mergesort(values, counters: OpCounters | None = None) -> list[int]:
    """Bottom-up stable merge sort, one charged comparison per element pair."""
    src = list(values)
    n = len(src)
    if n < 2:
        return src
    dst = [0] * n
    run = 1
    while run < n:
        for lo in range(0, n, 2 * run):
            mid = min(lo + run, n)
            hi = min(lo + 2 * run, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if counters is not None:
                    counters.key_compares += 1
                if src[j] < src[i]:
                    dst[k] = src[j]
                    j += 1
                else:
                    dst[k] = src[i]
                    i += 1
                k += 1
            if i < mid:
                dst[k:hi] = src[i:mid]
            else:
                dst[k:hi] = src[j:hi]
        src, dst = dst, src
        run *= 2
    return src


# -- runs ---------------------------------------------------------------------


def _run_once(cfg: BenchConfig, data: list[int]):
    """One timed sort; returns (output, word_ops, key_compares, height, splits)."""
    if cfg.algo == "fusion":
        out, tree = fusion_sort_with_stats(
            data, width=cfg.width, cap=cfg.cap, strategy=cfg.strategy)
        c = tree.counters
        return out, c.word_ops, c.key_compares, tree.height, tree.splits
    if cfg.algo == "btree":
        out, tree = btree_sort_with_stats(data, width=cfg.width, cap=cfg.cap)
        c = tree.counters
        return out, c.word_ops, c.key_compares, tree.height, tree.splits
    if cfg.algo == "mergesort":
        c = OpCounters()
        out = mergesort(data, c)
        return out, 0, c.key_compares, 0, 0
    return sorted(data), 0, 0, 0, 0


def run(config: BenchConfig) -> list[BenchRecord]:
    """Execute config.trials timed, verified runs over one generated input."""
    return run_with_output(config)[0]


def run_with_output(config: BenchConfig) -> tuple[list[BenchRecord], list[int]]:
    """``run``, also returning the last trial's verified output."""
    cfg = config.validate()
    data = generate(cfg.dist, cfg.n, cfg.seed, cfg.width)
    expected = sorted(data)
    records = []
    for trial in range(cfg.trials):
        t0 = time.perf_counter_ns()
        out, word_ops, key_compares, height, splits = _run_once(cfg, data)
        dt = time.perf_counter_ns() - t0
        if out != expected:
            raise VerificationFailed(
                f"{cfg.algo} output disagrees with the reference sort "
                f"(n={cfg.n}, seed={cfg.seed}, dist={cfg.dist})")
        records.append(BenchRecord(
            cfg.algo, cfg.n, cfg.seed, cfg.dist, cfg.width, cfg.cap, trial,
            dt, word_ops, key_compares, height, splits, verified=True))
    return records, out


def write_csv(path: str, records) -> None:
    """Append records, writing the header if the file is new/empty."""
    with open(path, "a") as fh:
        if not fh.tell():
            fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


# -- worked example ------------------------------------------------------------

_DEMO_KEYS = (0b11011111, 0b11100000, 0b11100001, 0b11111110)
_DEMO_QUERY = 0b11100111
_DEMO_SKETCHES = (0b011, 0b100, 0b101, 0b110)
_DEMO_NODE_WORD = 48350
_DEMO_QUERY_WORD = 21845
_DEMO_DIFFERENCE = 26505
_DEMO_SURVIVORS = 136
_DEMO_MSB = 7
_DEMO_ANSWER = 0b11100001


def demo_walkthrough(dot_path: str | None = None) -> str:
    """Step-by-step packed-comparison trace with known-good intermediates.

    Builds the four-key demo node (16-bit packing, 4-bit blocks), runs
    the demo query through the node's rank path, reads pass 1's
    subtract/mask/floor-lg values from its trace, and checks every
    intermediate value exactly.  Raises GoldenMismatch on any deviation.
    Optionally writes the keys' compressed trie as DOT.
    """
    node = FusionNode(list(_DEMO_KEYS), width=16, cap=7, strategy=EXACT)
    x = _DEMO_QUERY
    lines = ["packed-comparison walkthrough", ""]
    lines.append(node.dump())
    lines.append("")

    trace: dict = {}
    node.locate(x, OpCounters(), trace)
    skx = trace["sketch"]
    wq = skx * node._unit
    diff = node.node_word - wq
    survivors = trace["survivors"]
    top = survivors.bit_length() - 1
    answer = trace["selected"]
    checks = [
        ("sketches", tuple(node.sketches()), _DEMO_SKETCHES),
        ("node word", node.node_word, _DEMO_NODE_WORD),
        ("query word", wq, _DEMO_QUERY_WORD),
        ("difference", diff, _DEMO_DIFFERENCE),
        ("masked survivors", survivors, _DEMO_SURVIVORS),
        ("survivor floor-lg", top, _DEMO_MSB),
        ("selected key", answer, _DEMO_ANSWER),
    ]

    lines.append(f"query x        = {x:08b} ({x}), sk(x) = {skx:03b}")
    lines.append(f"query word     = {wq} (0 sk(x) per block)")
    lines.append(f"difference     = {node.node_word} - {wq} = {diff}")
    lines.append(f"masked         = {survivors} (separator positions only)")
    lines.append(f"floor-lg       = b{top}  ->  block index {trace['count']}")
    lines.append(f"selected key   = {answer:08b} ({answer})")
    lines.append("")

    bad = [f"{name}: got {got!r}, want {want!r}"
           for name, got, want in checks if got != want]
    for name, got, want in checks:
        mark = "ok" if got == want else "MISMATCH"
        lines.append(f"  [{mark}] {name}: {got!r} (expected {want!r})")
    text = "\n".join(lines) + "\n"
    if bad:
        raise GoldenMismatch("; ".join(bad))
    if dot_path is not None:
        trie = CompressedTrie(_DEMO_KEYS, width=8)
        with open(dot_path, "w") as fh:
            fh.write(trie.to_dot())
        text += f"\nwrote compressed trie to {dot_path}\n"
    return text


# -- key file I/O --------------------------------------------------------------


def write_keys(path: str, values, width: int, binary: bool = False) -> None:
    """Newline-delimited decimal, or little-endian fixed width with header."""
    if binary:
        if width not in WIDTHS:
            raise InvalidConfig(f"unsupported width {width!r}")
        fmt = KEY_FORMATS[width]
        with open(path, "wb") as fh:
            fh.write(KEY_FILE_MAGIC)
            fh.write(bytes([width]))
            for v in values:
                fh.write(struct.pack(fmt, v))
    else:
        with open(path, "w") as fh:
            for v in values:
                fh.write(f"{v}\n")


def read_keys(path: str, width: int = 64) -> tuple[list[int], int | None]:
    """Sniff the magic; returns (values, width from header or None for text).
    Text is ASCII decimal lines of ``width``-bit words; binary carries its width."""
    with open(path, "rb") as fh:
        head = fh.read(len(KEY_FILE_MAGIC))
        if head == KEY_FILE_MAGIC:
            header = fh.read(1)
            if not header:
                raise BadKeyFile("truncated key file: no width byte after the magic")
            width = header[0]
            if width not in WIDTHS:
                raise BadKeyFile(f"key file declares unsupported width {width}")
            fmt = KEY_FORMATS[width]
            step = width // 8
            payload = fh.read()
            if len(payload) % step:
                raise BadKeyFile("truncated key file: partial value at the end")
            vals = [struct.unpack_from(fmt, payload, off)[0]
                    for off in range(0, len(payload), step)]
            return vals, width
        fh.seek(0)
        vals = []
        for lineno, line in enumerate(fh, 1):  # int() parses ASCII bytes
            try:
                vals.append(check_word(int(line), width))
            except WordError as exc:
                raise BadKeyFile(f"line {lineno}: {exc}") from None
            except ValueError:
                if line.strip():
                    raise BadKeyFile(f"line {lineno}: not a decimal key: "
                                     f"{line.strip()[:40]!r}") from None
    return vals, None
