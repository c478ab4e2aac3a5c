"""A lean import, and the contracts of the small value types it relies on.

``fusionsort`` and the ``bench`` CLI load no ``dataclasses`` (which pulls
in ``inspect``, ``ast`` and ``dis``), ``logging`` or ``statistics``
(``fractions`` and ``decimal``); the record types are ``__slots__``
classes and named tuples that keep what callers use of them.
"""

import logging
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from fusionsort import sketch
from fusionsort.bench import BenchConfig, BenchRecord, run
from fusionsort.counters import OpCounters
from fusionsort.sketch import EXACT, MULTIPLICATIVE, SketchScheme, scheme_from_bits

ROOT = Path(__file__).resolve().parent.parent

HEAVY = {"dataclasses", "inspect", "logging", "statistics"}

# Diff sys.modules around each import, so whatever the interpreter's start-up
# (site, sitecustomize) already loaded does not count.
_PROBE = """
import sys
seen = set(sys.modules)
import fusionsort.bench
loaded = set(sys.modules) - seen
print(" ".join(sorted(loaded)))
seen |= loaded
import fusionsort.cli
print(" ".join(sorted(set(sys.modules) - seen)))
"""


def test_import_loads_no_heavy_stdlib_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    bench_mods, cli_mods = (set(line.split()) for line in res.stdout.splitlines())
    assert "fusionsort.bench" in bench_mods and "fusionsort.cli" in cli_mods
    assert not bench_mods & HEAVY, "import fusionsort.bench loaded " \
        f"{sorted(bench_mods & HEAVY)}"
    assert not cli_mods & HEAVY, "import fusionsort.cli loaded " \
        f"{sorted(cli_mods & HEAVY)}"


def _cold():
    sketch._scheme_cached.cache_clear()
    sketch._find_multiplier_cached.cache_clear()


# -- SketchScheme ---------------------------------------------------------------


def test_scheme_rebuilt_from_cold_caches_is_equal():
    args = [((0, 9, 20, 41), 64, MULTIPLICATIVE, None),
            ((0, 9, 20), 64, MULTIPLICATIVE, 2),  # falls back to exact
            ((3, 1), 16, EXACT, None)]
    _cold()
    first = [scheme_from_bits(*a) for a in args]
    _cold()
    again = [scheme_from_bits(*a) for a in args]
    for a, b in zip(first, again):
        assert a is not b  # a fresh instance, not the cached one
        assert a == b and hash(a) == hash(b)
    assert first[0].strategy == MULTIPLICATIVE and first[1].fallback
    assert len(set(first + again)) == 3
    assert pickle.loads(pickle.dumps(first[0])) == first[0]


def test_scheme_fields_defaults_and_immutability():
    s = SketchScheme(8, (5, 4, 0), 0b110001, EXACT, 3)
    assert s._fields == ("width", "relevant_bits", "mask", "strategy",
                         "padded_length", "multiplier", "shift", "fallback")
    assert (s.multiplier, s.shift, s.fallback) == (None, None, False)
    assert s.length == 3 and s.sketch(0b11100111) == 0b101
    assert repr(s) == ("SketchScheme(width=8, relevant_bits=(5, 4, 0), mask=49, "
                       "strategy='exact', padded_length=3, multiplier=None, "
                       "shift=None, fallback=False)")
    with pytest.raises(AttributeError):
        s.mask = 0
    with pytest.raises(AttributeError):
        s.extra = 1  # __slots__ = (): no instance dict either


def test_fallback_debug_record_survives(caplog):
    caplog.set_level(logging.DEBUG, logger="fusionsort.sketch")
    _cold()
    s = scheme_from_bits([0, 9, 20], 64, MULTIPLICATIVE, 2)  # 3 bits, window 2
    assert s.strategy == EXACT and s.fallback
    scheme_from_bits([20, 0, 9], 64, MULTIPLICATIVE, 2)  # cached: no second record
    records = [r for r in caplog.records if r.name == "fusionsort.sketch"]
    assert [(r.levelno, r.getMessage()) for r in records] == [
        (logging.DEBUG,
         "multiplicative sketch fallback: bits=(20, 9, 0) width=64 cap=2")]


# -- BenchConfig and BenchRecord -------------------------------------------------


def test_bench_config_construction():
    # positional, as perfbench builds it: algo, n, seed, dist, width, cap
    pos = BenchConfig("fusion", 100_000, 83, "uniform", 64, 7)
    kw = BenchConfig(algo="fusion", n=100_000, seed=83)
    assert pos == kw and hash(pos) == hash(kw)
    assert (kw.dist, kw.width, kw.cap, kw.trials, kw.strategy) == \
        ("uniform", 64, 7, 1, MULTIPLICATIVE)
    assert BenchConfig("btree", 5) == BenchConfig(
        "btree", 5, 0, "uniform", 64, 7, 1, MULTIPLICATIVE)
    assert kw.validate() is kw
    with pytest.raises(AttributeError):
        kw.n = 1
    with pytest.raises(TypeError):
        BenchConfig(algo="fusion")  # n has no default


def test_bench_record_csv_row_text():
    rec = BenchRecord("fusion", 100, 3, "uniform", 64, 7, 0, 12345, 678, 9, 3,
                      2, verified=True)
    assert rec.csv_row() == "fusion,100,3,uniform,64,7,0,12345,678,9,3,2"
    assert rec.verified is True
    with pytest.raises(AttributeError):
        rec.verified = False
    for rec in run(BenchConfig("btree", 200, 5, "duplicates", 16, 4, trials=2)):
        assert rec.csv_row() == (  # the row as it was spelled field by field
            f"{rec.algo},{rec.n},{rec.seed},{rec.dist},{rec.width},"
            f"{rec.cap},{rec.trial},{rec.wall_time_ns},{rec.word_ops},"
            f"{rec.key_compares},{rec.height},{rec.splits}")


# -- OpCounters ----------------------------------------------------------------


def test_op_counters_contract():
    c = OpCounters(word_ops=5, key_compares=2)
    assert c.snapshot() == (5, 2)
    assert OpCounters() == OpCounters(0, 0) and OpCounters(1) != OpCounters()
    assert OpCounters(3, 4) != (3, 4)
    c.add(OpCounters(key_compares=7, word_ops=1))
    c.word_ops += 1
    assert c == OpCounters(7, 9) and c.snapshot() == (7, 9)
    assert repr(c) == "OpCounters(word_ops=7, key_compares=9)"
    with pytest.raises(TypeError):
        hash(c)  # mutable totals
    with pytest.raises(AttributeError):
        c.rebuilds = 1  # __slots__: no stray attributes
