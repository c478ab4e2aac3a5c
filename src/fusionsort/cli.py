"""Command-line front end for the sorting benchmark, in three modes.

    bench --algo fusion --n 100000 --seed 1 --dist uniform --width 64 \
          --cap 7 --trials 3 --csv out.csv                  # generate
    bench --in keys.txt [--out sorted.txt [--out-binary]]   # file: sort once
    bench --demo [--dot trie.dot]      # demo: worked-example trace, exits
                                       # nonzero on any deviation

``--demo`` picks the demo mode, else ``--in`` the file mode, else keys are
generated.  ``FLAGS`` is the one table of the modes that read each flag; a
flag given in any other mode exits 2 with one line naming it.
"""

from __future__ import annotations

import argparse
import sys

from .bench import (
    ALGOS,
    CSV_HEADER,
    BadKeyFile,
    DISTS,
    BenchConfig,
    GoldenMismatch,
    InvalidConfig,
    VerificationFailed,
    _run_once,
    demo_walkthrough,
    read_keys,
    run_with_output,
    write_csv,
    write_keys,
)
from .sketch import STRATEGIES
from .wordops import WIDTHS

EXIT_CODES = """exit codes:
  0  success
  1  a sort disagreed with the reference sort
  2  invalid arguments, configuration or key file, or a deviating worked example
  3  a file could not be read or written"""

MODES = {"demo": "the worked example (--demo)", "file": "a file sort (--in)",
         "generate": "a generated run"}
SORTS, GEN = ("file", "generate"), ("generate",)
PATH = dict(metavar="PATH")
# flag: (modes that read it, help, add_argument keywords).  Every flag
# defaults to SUPPRESS, so the parsed dict holds exactly the flags given.
FLAGS = {
    "--algo": (SORTS, "sorting algorithm", dict(choices=ALGOS)),
    "--n": (GEN, "number of keys to generate", dict(type=int)),
    "--seed": (GEN, "input seed", dict(type=int)),
    "--dist": (GEN, "key distribution", dict(choices=DISTS)),
    "--width": (SORTS, "key bits; a binary --in file must declare the same",
                dict(type=int, choices=WIDTHS)),
    "--cap": (SORTS, "max keys per tree node", dict(type=int)),
    "--trials": (GEN, "timed runs", dict(type=int)),
    "--strategy": (SORTS, "sketch strategy (only with --algo fusion)", dict(choices=STRATEGIES)),
    "--csv": (GEN, "append one CSV row per trial", PATH),
    "--demo": (("demo",), "print the worked-example trace", dict(action="store_true")),
    "--dot": (("demo",), "write the demo's compressed trie as DOT", PATH),
    "--in": (("file",), "sort a key file once (decimal lines, or binary)", PATH),
    "--out": (SORTS, "write the sorted keys", PATH),
    "--out-binary": (SORTS, "write --out in the binary key-file format (only "
                     "with --out)", dict(action="store_true")),
}
# BenchConfig has no default for algo and n; every other default is its own
DEFAULTS = {"algo": "fusion", "n": 1000, **BenchConfig._field_defaults}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line; the usage is in --help
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="bench",
        description="Verified integer-sorting benchmark with word-op counting.\n"
                    "Modes: --demo (demo), --in (file), neither (generate); a flag\n"
                    "given outside the [modes] it lists exits 2.",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    for flag, (modes, text, kw) in FLAGS.items():
        default = f"; default {DEFAULTS[flag[2:]]}" if flag[2:] in DEFAULTS else ""
        p.add_argument(flag, default=argparse.SUPPRESS,
                       help=f"{text} [{', '.join(modes)}{default}]", **kw)
    return p


def _sort_file(given: dict, cfg: BenchConfig) -> int:
    values, file_width = read_keys(given["in"], cfg.width)
    if "width" in given and file_width not in (None, cfg.width):
        raise BadKeyFile(f"it declares width {file_width}, not --width {cfg.width}")
    cfg = cfg._replace(n=len(values), width=file_width or cfg.width)
    out = _run_once(cfg, values)[0]
    if out != sorted(values):
        raise VerificationFailed("file sort disagrees with the reference sort")
    if "out" in given:
        write_keys(given["out"], out, cfg.width, binary="out_binary" in given)
        print(f"sorted {len(out)} keys ({cfg.algo}, width {cfg.width}) -> {given['out']}")
    else:
        for v in out:
            print(v)
    return 0


def main(argv=None) -> int:
    given = vars(_build_parser().parse_args(argv))
    try:
        return _run(given)
    except GoldenMismatch as exc:
        print(f"worked example DEVIATED: {exc}", file=sys.stderr)
        return 2
    except BadKeyFile as exc:
        print(f"bad key file {given['in']}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # InvalidConfig and out-of-range keys
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except VerificationFailed as exc:
        print(f"verification FAILED: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3


def _run(given: dict) -> int:
    mode = "demo" if "demo" in given else "file" if "in" in given else "generate"
    for dest in given:  # command-line order: the first stray flag is named
        flag = "--" + dest.replace("_", "-")
        if mode not in FLAGS[flag][0]:
            raise InvalidConfig(f"{flag} is not used in {MODES[mode]}, only in "
                                + " or ".join(MODES[m] for m in FLAGS[flag][0]))
    if mode == "demo":
        print(demo_walkthrough(dot_path=given.get("dot")), end="")
        return 0
    settings = {**DEFAULTS, **given}
    if "strategy" in given and settings["algo"] != "fusion":
        raise InvalidConfig("--strategy is used only with --algo fusion")
    if "out_binary" in given and "out" not in given:
        raise InvalidConfig("--out-binary is used only with --out")
    cfg = BenchConfig(**{k: settings[k] for k in BenchConfig._fields})
    if mode == "file":
        return _sort_file(given, cfg)

    records, out = run_with_output(cfg)
    if "csv" in given:
        write_csv(given["csv"], records)
    if "out" in given:
        write_keys(given["out"], out, cfg.width, binary="out_binary" in given)

    times = sorted(r.wall_time_ns for r in records)  # even count: mean of middle two
    median_ns = (times[(len(times) - 1) // 2] + times[len(times) // 2]) / 2
    first = records[0]
    print(CSV_HEADER)
    for r in records:
        print(r.csv_row())
    print(f"# median wall time: {median_ns / 1e6:.3f} ms over {len(records)} trial(s); "
          f"word_ops={first.word_ops} key_compares={first.key_compares} "
          f"height={first.height} splits={first.splits} verified={first.verified}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
