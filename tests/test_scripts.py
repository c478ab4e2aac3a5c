"""Smoke tests: the scripts in scripts/ run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

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
