import hashlib
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fusionsort.bench import (
    ALGOS,
    CSV_HEADER,
    DISTS,
    KEY_FILE_MAGIC,
    BenchConfig,
    InvalidConfig,
    demo_walkthrough,
    generate,
    mergesort,
    read_keys,
    run,
    write_csv,
    write_keys,
)
from fusionsort import bench, cli
from fusionsort.btree import BTree
from fusionsort.cli import main as cli_main
from fusionsort.counters import OpCounters
from fusionsort.wordops import WIDTHS

import oracles


def test_generate_deterministic():
    for dist in DISTS:
        a = generate(dist, 200, 42, 64)
        b = generate(dist, 200, 42, 64)
        assert a == b
        c = generate(dist, 200, 43, 64)
        if dist != "sorted" or True:
            assert len(c) == 200


def test_generate_sorted_strictly_increasing():
    vals = generate("sorted", 5, 7, 8)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    rev = generate("reverse", 50, 7, 16)
    assert all(a > b for a, b in zip(rev, rev[1:]))
    big = generate("sorted", 1000, 3, 64)
    assert all(a < b for a, b in zip(big, big[1:]))


def test_generate_bounds_and_errors():
    vals = generate("uniform", 500, 1, 8)
    assert all(0 <= v < 256 for v in vals)
    with pytest.raises(InvalidConfig):
        generate("sorted", 300, 1, 8)  # more distinct keys than the universe
    with pytest.raises(InvalidConfig):
        generate("bogus", 10, 1, 8)
    with pytest.raises(InvalidConfig):
        generate("uniform", -1, 1, 8)


def test_generate_duplicates_universe():
    vals = generate("duplicates", 1000, 5, 64)
    assert len(set(vals)) <= 100  # universe is ceil(n/10)


GRID_NS = (0, 1, 2, 9, 10, 11, 255, 256, 257, 10241, 20000)


def test_generate_matches_per_call_oracle():
    # n = 10241 gives a universe of 1025 = 2**10 + 1 pool slots, so about
    # half the index draws are redrawn: an off-by-one in the redraw rule or
    # in the bit count shows there.
    cases = 0
    for dist in DISTS:
        for width in WIDTHS:
            for n in GRID_NS:
                if dist in ("sorted", "reverse") and n > 1 << width:
                    continue
                for seed in (0, 1, 31, 67):
                    assert generate(dist, n, seed, width) == \
                        oracles.generate(dist, n, seed, width), (dist, width, n, seed)
                    cases += 1
    assert cases == 5 * 4 * len(GRID_NS) * 4 - 2 * 3 * 4  # 8-bit sorted/reverse: n > 256


def _digest(keys, width):
    return hashlib.sha256(
        b"".join(k.to_bytes(width // 8, "big") for k in keys)).hexdigest()


# SHA-256 of the benchmark-scale inputs (sort_uniform64 and query_mix draw
# the uniform ones, sort_dense8 the duplicates), each key big-endian in
# width/8 bytes; recorded from the per-call generator.
PIN_GENERATED = {
    ("uniform", 100_000, 67, 64):
        "ebbee1f534c44afbaaf729e968b7adfae4c82755b4c9c07f4e3d0bc7f784de7c",
    ("uniform", 100_000, 1, 64):
        "f2224f602d2e87ba67e0c1c033b991c566c06e1ad14958623a7cf9b73909f7fb",
    ("duplicates", 1_000_000, 67, 8):
        "552d4cbf95cd82b9c2e977127daf8300807e37067683368bce490a1d89a01a4b",
    ("duplicates", 1_000_000, 1, 8):
        "147268ee79e61c2f8efb9eeed0b63dd5680d24ed223438c9a6692d75727a1460",
}


@pytest.mark.parametrize("dist,n,seed,width", list(PIN_GENERATED))
def test_generate_pinned(dist, n, seed, width):
    keys = generate(dist, n, seed, width)
    assert len(keys) == n
    assert _digest(keys, width) == PIN_GENERATED[dist, n, seed, width]


def test_generate_uniform_ks_sanity():
    # loose empirical-cdf check against the uniform distribution; advisory
    n = 20000
    vals = sorted(generate("uniform", n, 11, 64))
    span = float(1 << 64)
    stat = max(abs((i + 1) / n - v / span) for i, v in enumerate(vals))
    assert stat < 0.02


def test_mergesort_counts_and_sorts():
    import random
    rng = random.Random(3)
    for _ in range(40):
        data = [rng.randrange(1000) for _ in range(rng.randrange(200))]
        c = OpCounters()
        assert mergesort(data, c) == sorted(data)
    c = OpCounters()
    assert mergesort([], c) == []
    assert mergesort([1], c) == [1]
    assert c.key_compares == 0


def test_mergesort_stable_comparison_count():
    c = OpCounters()
    mergesort(list(range(1024))[::-1], c)
    # n log2 n comparisons at most for a power-of-two reverse run
    assert c.key_compares <= 1024 * 10


@pytest.mark.parametrize("algo", ALGOS)
def test_run_verifies(algo):
    cfg = BenchConfig(algo=algo, n=500, seed=3, dist="uniform", width=64,
                      cap=7, trials=2)
    records = run(cfg)
    assert len(records) == 2
    for i, rec in enumerate(records):
        assert rec.verified
        assert rec.trial == i
        assert rec.wall_time_ns > 0
        assert rec.csv_row().startswith(f"{algo},500,3,uniform,64,7,{i},")
    if algo == "fusion":
        assert records[0].word_ops > 0
    if algo in ("btree", "mergesort"):
        assert records[0].key_compares > 0


def test_run_same_output_across_algos():
    outs = {}
    for algo in ALGOS:
        cfg = BenchConfig(algo=algo, n=300, seed=9, dist="duplicates")
        rec = run(cfg)[0]
        outs[algo] = rec.verified
    assert all(outs.values())


def test_config_validation():
    with pytest.raises(InvalidConfig):
        BenchConfig(algo="quick", n=10).validate()
    with pytest.raises(InvalidConfig):
        BenchConfig(algo="fusion", n=10, dist="zipf").validate()
    with pytest.raises(InvalidConfig):
        BenchConfig(algo="fusion", n=10, width=24).validate()
    with pytest.raises(InvalidConfig):
        BenchConfig(algo="fusion", n=10, cap=2).validate()
    with pytest.raises(InvalidConfig):
        BenchConfig(algo="fusion", n=10, trials=0).validate()


def test_csv_schema(tmp_path):
    path = tmp_path / "out.csv"
    cfg = BenchConfig(algo="stdsort", n=100, seed=0)
    write_csv(str(path), run(cfg))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(CSV_HEADER.split(","))
    # appending does not duplicate the header
    write_csv(str(path), run(cfg))
    lines = path.read_text().strip().split("\n")
    assert lines.count(CSV_HEADER) == 1
    assert len(lines) == 3


def test_demo_walkthrough_values(tmp_path):
    dot = tmp_path / "trie.dot"
    text = demo_walkthrough(dot_path=str(dot))
    for needle in ("48350", "21845", "26505", "136", "b7", "011", "100", "101", "110"):
        assert needle in text
    assert "MISMATCH" not in text
    dot_text = dot.read_text()
    assert dot_text.startswith("digraph")
    assert 'label="b5"' in dot_text and 'label="11011111"' in dot_text


def test_key_file_roundtrip(tmp_path):
    vals = [0, 5, 77, 65535]
    tpath = tmp_path / "keys.txt"
    write_keys(str(tpath), vals, 16)
    got, width = read_keys(str(tpath))
    assert got == vals and width is None
    bpath = tmp_path / "keys.bin"
    write_keys(str(bpath), vals, 16, binary=True)
    got, width = read_keys(str(bpath))
    assert got == vals and width == 16


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fusionsort.cli", *args],
        capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )


def test_cli_demo(tmp_path):
    res = _run_cli("--demo")
    assert res.returncode == 0
    assert "48350" in res.stdout
    dot = tmp_path / "t.dot"
    res = _run_cli("--demo", "--dot", str(dot))
    assert res.returncode == 0
    assert dot.read_text().startswith("digraph")


def test_cli_bench_run(tmp_path):
    csv = tmp_path / "r.csv"
    res = _run_cli("--algo", "fusion", "--n", "2000", "--seed", "1",
                   "--dist", "uniform", "--trials", "2", "--csv", str(csv))
    assert res.returncode == 0, res.stderr
    assert "median wall time" in res.stdout
    assert csv.read_text().startswith(CSV_HEADER)


def test_cli_rejects_bad_config():
    res = _run_cli("--algo", "fusion", "--n", "10", "--cap", "20")
    assert res.returncode == 2


@pytest.mark.parametrize("algo", ALGOS)
def test_cli_sort_file(tmp_path, algo):
    inp = tmp_path / "in.txt"
    outp = tmp_path / "out.txt"
    inp.write_text("9\n3\n7\n3\n")
    res = _run_cli("--algo", algo, "--width", "16",
                   "--in", str(inp), "--out", str(outp))
    assert res.returncode == 0, res.stderr
    got, _ = read_keys(str(outp))
    assert got == [3, 3, 7, 9]


def _cli_fails(capsys, code, *args):
    """Run the CLI in-process; it must exit with code and one stderr line."""
    assert cli_main(list(args)) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    return err


def test_cli_magic_only_key_file(tmp_path, capsys):
    path = tmp_path / "magic.bin"
    path.write_bytes(KEY_FILE_MAGIC)
    err = _cli_fails(capsys, 2, "--in", str(path))
    assert "truncated key file" in err


def test_cli_non_numeric_key_line(tmp_path, capsys):
    path = tmp_path / "keys.txt"
    path.write_text("9\n\n3\nseven\n1\n")
    err = _cli_fails(capsys, 2, "--in", str(path))
    assert err.startswith("bad key file") and "line 4" in err
    assert "invalid configuration" not in err


@pytest.mark.parametrize("text,line,key", [("5\n300\n", 2, 300),
                                           ("\n-3\n7\n", 2, -3)])
@pytest.mark.parametrize("algo", ALGOS)
def test_cli_key_out_of_width(tmp_path, capsys, algo, text, line, key):
    # every algorithm rejects the key before it runs, naming the line
    path = tmp_path / "keys.txt"
    path.write_text(text)
    err = _cli_fails(capsys, 2, "--algo", algo, "--width", "8", "--in", str(path))
    assert err == (f"bad key file {path}: line {line}: "
                   f"value {key} out of range for a 8-bit word\n")


def test_cli_unwritable_dot(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.dot"
    err = _cli_fails(capsys, 3, "--demo", "--dot", str(missing))
    assert str(missing) in err


def test_cli_unwritable_csv(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.csv"
    err = _cli_fails(capsys, 3, "--n", "50", "--csv", str(missing))
    assert str(missing) in err


def test_cli_unwritable_out(tmp_path, capsys):
    missing = tmp_path / "missing" / "x"
    err = _cli_fails(capsys, 3, "--n", "50", "--out", str(missing))
    assert str(missing) in err


def test_cli_csv_with_in_file_is_refused(tmp_path, capsys):
    # a file sort makes no trial records, so --csv would silently write nothing
    inp = tmp_path / "k.txt"
    inp.write_text("9\n3\n")
    csv = tmp_path / "out.csv"
    err = _cli_fails(capsys, 2, "--in", str(inp), "--csv", str(csv))
    assert "--csv" in err and "--in" in err
    assert not csv.exists()


def test_cli_dot_without_demo_is_refused(tmp_path, capsys):
    dot = tmp_path / "x.dot"
    err = _cli_fails(capsys, 2, "--n", "10", "--dot", str(dot))
    assert "--dot" in err and "--demo" in err
    assert not dot.exists()
    res = _run_cli("--n", "10", "--dot", str(dot))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.count("\n") == 1 and "--dot" in res.stderr


@pytest.mark.parametrize("flag", ["--in", "--out", "--csv"])
def test_cli_demo_refuses_file_flags(tmp_path, capsys, flag):
    # the worked example reads no keys and writes no sorted keys or rows
    inp = tmp_path / "k.txt"
    inp.write_text("9\n3\n")
    path = str(inp) if flag == "--in" else str(tmp_path / "o")
    err = _cli_fails(capsys, 2, "--demo", flag, path)
    assert flag in err and "--demo" in err
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "o").exists()
    res = _run_cli("--demo", "--in", str(inp), "--out", str(tmp_path / "o"))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.count("\n") == 1 and "--in" in res.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag,value", [("--n", "5"), ("--seed", "0"),
                                        ("--dist", "sorted"), ("--trials", "3")])
def test_cli_in_refuses_generation_flags(tmp_path, capsys, flag, value):
    # a file sort sorts the file's keys once; a given default is refused too
    inp = tmp_path / "k.txt"
    inp.write_text("9\n3\n")
    out = tmp_path / "o.txt"
    err = _cli_fails(capsys, 2, "--in", str(inp), flag, value, "--out", str(out))
    assert err.startswith("invalid configuration: ")
    assert flag in err and "--in" in err
    assert not out.exists()
    assert cli_main(["--in", str(inp), "--out", str(out)]) == 0
    assert out.read_text().split() == ["3", "9"]


def test_cli_in_cap_reaches_only_the_trees(tmp_path, capsys):
    # a file sort is not validated as a whole: only a tree checks --cap
    inp = tmp_path / "k.txt"
    inp.write_text("9\n3\n")
    assert cli_main(["--in", str(inp), "--algo", "stdsort", "--cap", "20"]) == 0
    assert capsys.readouterr().out.split() == ["3", "9"]
    err = _cli_fails(capsys, 2, "--in", str(inp), "--algo", "fusion", "--cap", "20")
    assert err.startswith("invalid configuration: ")


def test_cli_out_binary_needs_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    err = _cli_fails(capsys, 2, "--n", "5", "--out-binary")
    assert err.startswith("invalid configuration: ")
    assert "--out-binary" in err and "--out" in err
    assert list(tmp_path.iterdir()) == []
    inp = tmp_path / "k.txt"
    inp.write_text("9\n3\n")
    _cli_fails(capsys, 2, "--in", str(inp), "--out-binary")
    out = tmp_path / "o.bin"
    assert cli_main(["--in", str(inp), "--width", "16", "--out", str(out),
                     "--out-binary"]) == 0
    assert read_keys(str(out)) == ([3, 9], 16)


@pytest.mark.parametrize("algo", [a for a in ALGOS if a != "fusion"])
def test_cli_strategy_only_with_fusion(tmp_path, capsys, algo):
    for strategy in ("exact", "multiplicative"):
        err = _cli_fails(capsys, 2, "--n", "5", "--algo", algo,
                         "--strategy", strategy)
        assert err.startswith("invalid configuration: ")
        assert "--strategy" in err and "fusion" in err
    inp = tmp_path / "k.txt"
    inp.write_text("9\n3\n")
    _cli_fails(capsys, 2, "--in", str(inp), "--algo", algo, "--strategy", "exact")
    assert cli_main(["--n", "5", "--algo", algo]) == 0


def test_cli_fusion_strategy_default_and_choice(tmp_path, monkeypatch):
    seen = []
    real_run, real_once = cli.run_with_output, cli._run_once
    monkeypatch.setattr(cli, "run_with_output",
                        lambda cfg: seen.append(cfg.strategy) or real_run(cfg))
    monkeypatch.setattr(cli, "_run_once",
                        lambda cfg, data: seen.append(cfg.strategy) or real_once(cfg, data))
    inp = tmp_path / "k.txt"
    inp.write_text("9\n3\n")
    assert cli_main(["--n", "50"]) == 0
    assert cli_main(["--n", "50", "--strategy", "exact"]) == 0
    assert cli_main(["--in", str(inp)]) == 0
    assert cli_main(["--in", str(inp), "--strategy", "exact"]) == 0
    assert seen == ["multiplicative", "exact"] * 2


@pytest.mark.parametrize("times,want", [((4, 1, 2, 9), "3.000"),
                                         ((4, 1, 2), "2.000"), ((7,), "7.000")])
def test_cli_median_wall_time(capsys, monkeypatch, times, want):
    # the summary's median averages the middle two of an even count
    real = bench.run_with_output

    def fixed_times(cfg):
        records, out = real(cfg)
        return [r._replace(wall_time_ns=t * 1_000_000)
                for r, t in zip(records, times)], out

    monkeypatch.setattr(cli, "run_with_output", fixed_times)
    assert cli_main(["--algo", "stdsort", "--n", "20",
                     "--trials", str(len(times))]) == 0
    assert (f"# median wall time: {want} ms over {len(times)} trial(s)"
            in capsys.readouterr().out)


def test_cli_out_writes_verified_output(tmp_path, monkeypatch):
    # the file holds what the sort produced and run() verified, not a
    # second generation of the input
    monkeypatch.setattr(cli, "generate", lambda *a: [3, 2, 1], raising=False)
    path = tmp_path / "out.txt"
    assert cli_main(["--algo", "btree", "--n", "300", "--seed", "4",
                     "--width", "16", "--trials", "2", "--out", str(path)]) == 0
    got, _ = read_keys(str(path), 16)
    assert got == sorted(generate("uniform", 300, 4, 16))


def test_cli_out_not_written_when_unverified(tmp_path, monkeypatch, capsys):
    wrong = lambda data, **kw: ([0] * len(data), BTree(width=16))
    monkeypatch.setattr(bench, "btree_sort_with_stats", wrong)
    path = tmp_path / "out.txt"
    err = _cli_fails(capsys, 1, "--algo", "btree", "--n", "50", "--width", "16",
                     "--out", str(path))
    assert err.startswith("verification FAILED")
    assert not path.exists()


def test_cli_help_lists_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "exit codes:" in out
    for code in "0123":
        assert f"\n  {code}  " in out


def test_cli_binary_in_width_must_match(tmp_path, capsys):
    # a binary key file carries its width; a --width given must agree with it
    path = tmp_path / "k64.bin"
    write_keys(str(path), [9, 3], 64, binary=True)
    err = _cli_fails(capsys, 2, "--in", str(path), "--width", "8")
    assert err == f"bad key file {path}: it declares width 64, not --width 8\n"
    assert cli_main(["--in", str(path), "--width", "64"]) == 0
    assert capsys.readouterr().out.split() == ["3", "9"]


def test_cli_non_utf8_key_file_names_the_line(tmp_path, capsys):
    path = tmp_path / "keys.txt"
    path.write_bytes(b"9\n\xe9\n3\n")
    err = _cli_fails(capsys, 2, "--in", str(path))
    assert err.startswith(f"bad key file {path}: line 2: ")


@pytest.mark.parametrize("args", [("--algo", "foo"), ("--n", "x"), ("--nope",)])
def test_cli_argparse_error_is_one_line(args):
    res = _run_cli(*args)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("bench: error:")


_FLAGS = [a.option_strings[0] for a in cli._build_parser()._actions
          if "-h" not in a.option_strings]


@pytest.mark.parametrize("mode", cli.MODES)
@pytest.mark.parametrize("flag", _FLAGS)
def test_cli_flag_table_covers_every_flag(tmp_path, capsys, flag, mode):
    # every flag the parser takes is either read in a mode (exit 0) or
    # refused there: exit 2, one line naming the flag, no output, no file
    keys = tmp_path / "keys.txt"
    keys.write_text("9\n3\n")
    base = {"demo": ["--demo"], "file": ["--in", str(keys)], "generate": ["--n", "5"]}
    action = next(a for a in cli._build_parser()._actions
                  if flag in a.option_strings)
    if action.nargs == 0:
        extra = [flag] + (["--out", str(tmp_path / "o")] if flag == "--out-binary" else [])
    elif flag == "--in":
        extra = [flag, str(keys)]
    elif action.choices:
        extra = [flag, str(action.choices[-1])]
    elif action.type is int:
        extra = [flag, "5"]
    else:
        extra = [flag, str(tmp_path / "o")]
    code = cli_main(base[mode] + extra)
    out, err = capsys.readouterr()
    if mode in cli.FLAGS[flag][0]:
        assert code == 0 and err == "", err
        return
    assert code == 2 and out == "" and err.count("\n") == 1, err
    assert re.search(rf"(?<![\w-]){flag}(?![\w-])", err), err
    assert list(tmp_path.iterdir()) == [keys]


_KEY_FILES = st.one_of(
    st.binary(max_size=80),
    st.lists(st.integers(-3, 1 << 66), max_size=20).map(
        lambda xs: "".join(f"{x}\n" for x in xs).encode()),
    st.tuples(st.one_of(st.sampled_from(WIDTHS), st.integers(0, 255)),
              st.binary(max_size=80)).map(
        lambda wp: KEY_FILE_MAGIC + bytes([wp[0]]) + wp[1]),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_KEY_FILES)
def test_cli_in_fuzz(tmp_path, capsys, data):
    # any --in file is sorted (exit 0) or refused with one "bad key file" line
    path = tmp_path / "keys"
    path.write_bytes(data)
    code = cli_main(["--in", str(path)])
    out, err = capsys.readouterr()
    assert code in (0, 2) and "Traceback" not in err
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("bad key file"), err
        return
    got = [int(line) for line in out.splitlines()]
    assert got == sorted(got) == sorted(read_keys(str(path))[0])


def test_readme_flag_table_matches_cli():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        rows = [[c.strip() for c in line.strip().strip("|").split("|")]
                for line in fh if line.startswith("| ")]
    header = next(r for r in rows if r[0] == "flag")
    assert header[1:] == list(cli.MODES)
    table = {r[0].strip("`"): {m for m, c in zip(header[1:], r[1:]) if c}
             for r in rows if r[0].startswith("`--")}
    assert sorted(table) == sorted(_FLAGS)
    assert table == {f: set(modes) for f, (modes, *_) in cli.FLAGS.items()}
