"""Smoke tests: the scripts in scripts/ run against the current API."""

import json
import os
import shutil
import subprocess
import sys
from bisect import bisect_right
from pathlib import Path

import fusionsort
from fusionsort.bench import DISTS, generate
from fusionsort.counters import OpCounters
from fusionsort.fusion_node import FusionNode
from fusionsort.sketch import MULTIPLICATIVE
from fusionsort.trie import CompressedTrie

import visit_census
from ab_pairs import sort
from oracles import trs

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args, code=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == code, res.stderr
    return res.stdout.splitlines()


def _edited_src(tmp_path, module, old, new):
    """A copy of src/ with one line of fusionsort/``module`` edited."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "fusionsort" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return str(src)


def test_node_anatomy(tmp_path):
    dot = tmp_path / "trie.dot"
    lines = _run_script("node_anatomy.py", "--keys", "223", "224", "225", "254",
                        "--width", "16", "--query", "231", "--dot", str(dot))
    assert "  masked         = 136" in lines
    assert "  rank           = 3" in lines
    assert f"wrote {dot}" in lines
    assert dot.read_text() == CompressedTrie([223, 224, 225, 254], width=16).to_dot()


def test_node_anatomy_multiplicative_64bit():
    keys = [0x0123456789ABCDEF, 0x0123456789ABCE00, 0x7F00000000000001,
            0x7F00000000000100, 0xC000000000000000, 0xFEDCBA9876543210]
    x = 0x7F00000000000080  # not stored: falls between two clustered keys
    lines = _run_script("node_anatomy.py", "--keys", *map(str, keys),
                        "--strategy", "multiplicative", "--query", str(x))
    assert "sketch strategy multiplicative" in lines[0]
    fields = {name.strip(): value for name, value in
              (line.split(" = ", 1) for line in lines if " = " in line)}
    assert int(fields["rank"]) == bisect_right(keys, x)
    selected = int(fields["shares prefix"])
    assert selected in keys
    want = trs(CompressedTrie(keys, width=64), x)
    assert (x ^ selected).bit_length() == (x ^ want).bit_length()
    node = FusionNode(keys, width=64, cap=8, strategy=MULTIPLICATIVE)
    ops = OpCounters()
    node.locate(x, ops)
    assert int(fields["word ops"]) == ops.word_ops


def test_ab_pairs_same_tree():
    src = str(ROOT / "src")
    lines = _run_script("ab_pairs.py", src, src, "--algo", "fusion",
                        "--n", "500", "--pairs", "2")
    assert lines[0] == ("checked 80 rows and 4944 search cases (n <= 2000, "
                        "seed 1): all identical")
    assert [line.split(":")[0] for line in lines[1:3]] == ["pair 1", "pair 2"]
    assert lines[3].endswith(", us/key median (quartiles):")
    assert lines[7] == "fresh-interpreter import fusionsort.bench, ms median (quartiles):"
    assert len(lines) == 11
    for block in (lines[3:7], lines[7:11]):
        assert block[1].startswith("  base   ") and block[2].startswith("  change ")
        assert block[3].startswith("  ratio ") and block[3].endswith(" of 2 pairs")
        for line in block[1:3]:  # "median (q1-q3)"
            assert float(line.split()[1]) > 0


def test_ab_pairs_mix_same_tree():
    src = str(ROOT / "src")
    lines = _run_script("ab_pairs.py", src, src, "--algo", "mix",
                        "--n", "300", "--pairs", "2")
    assert lines[0] == ("checked 80 rows and 4944 search cases (n <= 2000, "
                        "seed 1): all identical")
    assert [line.split(":")[0] for line in lines[1:3]] == ["pair 1", "pair 2"]
    assert all(line.endswith(" us/op") for line in lines[1:3])
    assert lines[3] == ("mix uniform n=300 width=64 cap=7, 1000-op chunks, "
                        "us/op median (quartiles):")
    assert lines[6].startswith("  ratio ") and lines[6].endswith(" of 2 pairs")
    assert len(lines) == 11


def test_ab_pairs_opcodes_repeat():
    # the same tree counted twice, as base and as change, at tiny n: every
    # workload's opcode count repeats exactly
    src = str(ROOT / "src")
    lines = _run_script("ab_pairs.py", src, src, "--algo", "btree",
                        "--n", "100", "--pairs", "1", "--opcodes", "100")
    assert len(lines) == 16
    assert lines[10] == ("interpreter opcodes (sys.settrace opcode events; "
                         "C-level work not seen), base -> change:")
    rows = [line.split(": ") for line in lines[11:]]
    assert [label for label, _ in rows] == [
        "  fusion uniform n=100", "  fusion clustered n=100",
        "  btree uniform n=200", "  mergesort uniform n=200",
        "  mix 2 x 1000 ops, warm fusion tree n=100"]
    for _, counts in rows:
        a, b, ratio = counts.replace(" -> ", " ").split()
        assert a == b and int(a) > 0 and ratio == "(1.0000)"


def test_ab_pairs_word_ops_only_tallies_and_times(tmp_path):
    # a change that moves one word-op charge and nothing else: every
    # mismatch is tallied per counter, the timing still runs, exit 1
    src = _edited_src(tmp_path, "fusion_node.py", "w + 12 + sk_ops + 6",
                      "w + 13 + sk_ops + 6")
    lines = _run_script("ab_pairs.py", str(ROOT / "src"), src, "--algo", "fusion",
                        "--n", "300", "--pairs", "2", code=1)
    rows = [line for line in lines if line.startswith("MISMATCH ")]
    assert rows and all(line.startswith(("MISMATCH fusion-", "MISMATCH read fusion-"))
                        for line in rows)
    for line in rows:
        if line.startswith("MISMATCH read "):
            assert "; answers 0 differ; word_ops 0 lower, " in line
            assert line.endswith(" higher; key_compares 0 lower, 808 equal, 0 higher")
        else:
            assert line.endswith(", outputs equal")
    at = len(rows)
    assert lines[at].endswith(f"): {len(rows)} mismatched")
    assert lines[at + 1].startswith("sort rows, change against base: word_ops 0 lower, ")
    assert "; key_compares 0 lower, 80 equal, 0 higher; height 0 lower, 60 equal" in lines[at + 1]
    assert lines[at + 2].startswith("reads, change against base: answers 0 differ; "
                                    "word_ops 0 lower, ")
    assert lines[at + 3] == "only word_ops differ: timing anyway, exit status 1"
    assert [line.split(":")[0] for line in lines[at + 4:at + 6]] == ["pair 1", "pair 2"]
    assert lines[at + 10] == "fresh-interpreter import fusionsort.bench, ms median (quartiles):"
    assert len(lines) == at + 14
    # the mix chunks and the opcode count run too
    lines = _run_script("ab_pairs.py", str(ROOT / "src"), src, "--algo", "mix",
                        "--n", "300", "--pairs", "2", "--opcodes", "100", code=1)
    assert "mix chunks, change against base: word_ops 0 lower, 0 equal, 2 higher" in lines
    assert lines[-6] == ("interpreter opcodes (sys.settrace opcode events; "
                         "C-level work not seen), base -> change:")


def test_ab_pairs_wrong_answer_stops_at_check(tmp_path):
    # a wrong read answer is more than a word-op move: no timing, exit 1
    src = _edited_src(tmp_path, "fusion_tree.py", "return total\n\n    def predecessor",
                      "return total + 1\n\n    def predecessor")
    lines = _run_script("ab_pairs.py", str(ROOT / "src"), src, "--algo", "fusion",
                        "--n", "300", "--pairs", "2", code=1)
    assert any(line.startswith("MISMATCH read fusion-") and "; answers 202 differ;" in line
               for line in lines)
    assert lines[-1] == "more than word_ops differ: stopping before timing"
    assert not any(line.startswith("pair ") for line in lines)


def test_visit_census(monkeypatch):
    # per dist and phase the path counts sum to the visits and the visits
    # equal a count of locate calls made outside the census; the paths
    # are CHARGE_GAP's, as the census counts into a dict keyed by PATHS
    calls = [0]
    locate = FusionNode.locate

    def counted(node, *args):
        calls[0] += 1
        return locate(node, *args)

    monkeypatch.setattr(FusionNode, "locate", counted)
    for dist in DISTS:
        before = calls[0]
        phases = visit_census.census(dist, 2000, 1)
        assert sum(ph["visits"] for ph in phases.values()) == calls[0] - before
        for ph in phases.values():
            assert sum(ph["paths"].values()) == ph["visits"] > 0
            assert sum(ph["forms"].values()) == ph["visits"] - ph["paths"]["t = 1"]
    assert FusionNode.locate is counted  # the census put back what it wrapped
    lines = _run_script("visit_census.py", "--n", "300", "--seed", "2")
    assert lines[0] == ("visit census: n=300 seed=2 width=64 cap=7; "
                        "mix: 1 chunks of 1000 ops")
    assert len(lines) == 1 + len(DISTS) * 2 * (2 + len(visit_census.PATHS))


def test_bench_record_schema_and_repeat(tmp_path):
    # at small n, with perfbench and the opcode count left out: every
    # part is there, a second run gives the same counters and census, and
    # the tree sorts' counters are the ones ab_pairs.py checks
    runs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        lines = _run_script("bench_record.py", "--out", str(out), "--n", "300",
                            "--no-perfbench", "--no-opcodes",
                            "--tier1", "1 passed in 1.0 s")
        assert lines == [f"wrote {out}"]
        runs.append(json.loads(out.read_text()))
    rec = runs[0]
    assert set(rec) == {"provenance", "config", "end_to_end", "census",
                        "perfbench", "opcodes"}
    assert rec["perfbench"] is None and rec["opcodes"] is None
    assert set(rec["provenance"]) == {"commit", "dirty", "python", "nproc",
                                      "date", "tier1"}
    assert rec["provenance"]["tier1"] == "1 passed in 1.0 s"
    assert rec["config"] == {"n": 300, "seed": 1, "width": 64, "cap": 7, "trials": 3}
    cells = rec["end_to_end"]
    assert [(c["dist"], c["algo"]) for c in cells] == [
        (dist, algo) for dist in DISTS for algo in ("fusion", "btree", "mergesort", "stdsort")]
    for cell in cells:
        assert len(cell["us_per_key_trials"]) == 3
        assert cell["us_per_key"] == sorted(cell["us_per_key_trials"])[1] > 0
    assert set(rec["census"]) == set(DISTS)
    counters = ("dist", "algo", "word_ops", "key_compares", "height", "splits")
    for r in runs:
        assert all(c["word_ops"] > 0 for c in r["end_to_end"] if c["algo"] == "fusion")
    assert ([[c[k] for k in counters] for c in runs[0]["end_to_end"]]
            == [[c[k] for k in counters] for c in runs[1]["end_to_end"]])
    assert runs[0]["census"] == runs[1]["census"]
    # the record charges what ab_pairs.py charges for the same sorts
    for cell in rec["end_to_end"]:
        if cell["algo"] in ("fusion", "btree"):
            data = generate(cell["dist"], 300, 1, 64)
            assert list(sort(fusionsort, cell["algo"], data, 64)[1]) == [
                cell[k] for k in counters[2:]]
