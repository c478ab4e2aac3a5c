"""Smoke tests: the scripts in scripts/ run against the current API."""

import os
import subprocess
import sys
from bisect import bisect_right
from pathlib import Path

from fusionsort.trie import CompressedTrie

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


def test_growth_study():
    lines = _run_script("growth_study.py", "--ns", "100", "1000")
    assert lines[0].split() == ["algo", "n", "height", "word_ops/n",
                                "compares/n", "ratio"]
    rows = [line.split() for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("fusion", "100"), ("btree", "100"), ("fusion", "1000"), ("btree", "1000")]


def test_node_anatomy():
    lines = _run_script("node_anatomy.py", "--keys", "223", "224", "225", "254",
                        "--width", "16", "--query", "231")
    assert "  masked         = 136" in lines
    assert "  rank           = 3" in lines


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
    want = CompressedTrie(keys, width=64).trs(x)
    assert (x ^ selected).bit_length() == (x ^ want).bit_length()


def test_ab_pairs_same_tree():
    src = str(ROOT / "src")
    lines = _run_script("ab_pairs.py", src, src, "--algo", "fusion",
                        "--n", "500", "--pairs", "2")
    assert lines[0] == "checked 60 rows (n <= 2000, seed 1): all identical"
    assert [line.split(":")[0] for line in lines[1:3]] == ["pair 1", "pair 2"]
    assert lines[3].endswith(", us/key median (quartiles):")
    assert lines[7] == "fresh-interpreter import fusionsort.bench, ms median (quartiles):"
    assert len(lines) == 11
    for block in (lines[3:7], lines[7:11]):
        assert block[1].startswith("  base   ") and block[2].startswith("  change ")
        assert block[3].startswith("  ratio ") and block[3].endswith(" of 2 pairs")
        for line in block[1:3]:  # "median (q1-q3)"
            assert float(line.split()[1]) > 0
