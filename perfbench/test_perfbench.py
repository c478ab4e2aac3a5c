"""Tests of the benchmark itself: failures are counted, gates fire, and
both runs emit every metric.  Sizes are tiny; the real ones live in
``core.SPECS``."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fusionsort import bench
from fusionsort.fusion_tree import FusionTree

from perfbench import core, layers, workloads
from perfbench.core import Model, Spec, Tally, mix_ops, run_chunk

TINY_SORT = Spec("uniform", 300, 64, 0.0)
TINY_MIX = Spec("uniform", 300, 64, 0.1)


def test_wrong_sort_output_is_counted(monkeypatch):
    orig = bench.fusion_sort_with_stats

    def reversed_sorter(values, **kw):
        out, tree = orig(values, **kw)
        return out[::-1], tree

    monkeypatch.setattr(bench, "fusion_sort_with_stats", reversed_sorter)
    tally = Tally()
    rec = workloads.sort_once(workloads.sort_config(TINY_SORT, "fusion", 1),
                              tally)
    assert rec is None
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "VerificationFailed" in tally.notes[0]


def test_raising_sorter_is_counted(monkeypatch):
    def boom(values, **kw):
        raise RuntimeError("sorter crashed")

    monkeypatch.setattr(bench, "btree_sort_with_stats", boom)
    tally = Tally()
    m = workloads.run_sorts(TINY_SORT, 1, 0.0, tally, core.Speed())
    assert tally.failed == 1 and tally.attempted == 3  # fusion sort + gate
    assert m["btree_us_per_key"] == 0.0 and m["fusion_us_per_key"] > 0


def _small_trees(n=300, seed=3):
    return workloads.build_trees(Spec("uniform", n, 64, 0.1), seed)


def test_wrong_query_answer_is_counted(monkeypatch):
    keys, ftree, btree = _small_trees()
    orig = FusionTree.rank
    monkeypatch.setattr(FusionTree, "rank", lambda self, x: orig(self, x) + 1)
    rng = random.Random(0)
    ops = mix_ops(rng, list(keys), set(keys), 400, 64, 0.1)
    fans, bans = [], []
    run_chunk(ftree, btree, ops, fans, bans)
    tally = Tally()
    Model(keys).check(ops, fans, bans, tally)
    wrong = sum(op == "rank" for op, _ in ops)
    assert wrong > 0
    assert tally.failed == wrong and tally.attempted == 2 * len(ops)


def test_raised_query_answer_is_counted(monkeypatch):
    keys, ftree, btree = _small_trees()

    def boom(self, x):
        raise KeyError(x)

    monkeypatch.setattr(FusionTree, "successor", boom)
    rng = random.Random(1)
    ops = mix_ops(rng, list(keys), set(keys), 400, 64, 0.0)
    fans, bans = [], []
    run_chunk(ftree, btree, ops, fans, bans)
    tally = Tally()
    Model(keys).check(ops, fans, bans, tally)
    assert tally.failed == sum(op == "successor" for op, _ in ops) > 0


def test_nondeterministic_counters_fail_the_gate(monkeypatch):
    orig = bench.fusion_sort_with_stats
    calls = []

    def drifting(values, **kw):
        out, tree = orig(values, **kw)
        calls.append(1)
        tree.counters.word_ops += len(calls)
        return out, tree

    monkeypatch.setattr(bench, "fusion_sort_with_stats", drifting)
    tally = Tally()
    workloads.run_sorts(TINY_SORT, 1, 0.05, tally, core.Speed())
    assert len(calls) >= 2
    assert tally.failed == len(calls) - 1
    assert all("counters" in note for note in tally.notes)


def test_query_mix_is_correct_and_deterministic():
    tally = Tally()
    m = workloads.run_query_mix(TINY_MIX, 2, 0.0, tally, core.Speed())
    assert tally.failed == 0 and tally.attempted > 2 * core.COUNT_PREFIX
    assert set(m) == set(workloads.UNITS) - {"setup_s", "ok_share"} | {
        "setup_work_s"}
    assert all(v > 0 for v in m.values())


def test_traced_run_emits_every_layer_metric(monkeypatch, tmp_path):
    monkeypatch.setitem(core.SPECS, "tiny", TINY_MIX)
    tally = Tally()
    m = layers.per_layer("tiny", 4, 0.0, tally, tmp_path)
    assert tally.failed == 0
    assert set(m) == set(layers.UNITS)
    assert m["fusion_tree.sort_self_s"] > 0
    assert m["sketch.distinct_schemes"] > 0
    lines = (tmp_path / "spans-tiny.csv").read_text().splitlines()
    assert lines[0] == "id,parent,trace,name,t0_ns,t1_ns,self_ns"
    names = {line.split(",")[3] for line in lines[1:]}
    assert set(layers.SPANS) <= names


def test_tracer_self_time_subtracts_children():
    tr = layers.Tracer()

    def inner():
        tr.add("leaf", 0, 0)

    outer = tr.wrap(lambda: tr.wrap(inner, "child")(), "root")
    outer()
    own = tr.self_ns()
    dur = [b - a for a, b in zip(tr.t0, tr.t1)]
    assert list(tr.parent) == [-1, 0, 1]
    assert list(tr.trace) == [0, 0, 0]
    assert own[0] == dur[0] - dur[1] and own[1] == dur[1] - dur[2]


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert res.returncode != 0
    assert res.stdout == ""
    assert "cannot import fusionsort" in res.stderr


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_metric(trace, monkeypatch, capsys):
    from perfbench import run

    assert run.WORKLOADS == tuple(core.SPECS)
    monkeypatch.setitem(core.SPECS, "sort_uniform64", TINY_SORT)
    assert run.main(["--workload", "sort_uniform64", "--seed", "1",
                     "--seconds", "0.01", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    units = layers.UNITS if trace else workloads.UNITS
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
