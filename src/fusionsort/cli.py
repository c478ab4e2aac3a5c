"""Command-line front end for the sorting benchmark.

    bench --algo fusion --n 100000 --seed 1 --dist uniform --width 64 \
          --cap 7 --trials 3 --csv out.csv

    bench --demo [--dot trie.dot]      # worked-example trace, exits
                                       # nonzero on any deviation

    bench --in keys.txt [--out sorted.txt [--out-binary]]   # sort a file once
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
from .sketch import MULTIPLICATIVE, STRATEGIES
from .wordops import WIDTHS

EXIT_CODES = """exit codes:
  0  success
  1  a sort disagreed with the reference sort
  2  invalid arguments, configuration or key file, or a deviating worked example
  3  a file could not be read or written"""

# generation flags and their defaults; --in takes none of them, so they
# (and --strategy, which only --algo fusion takes) default to SUPPRESS and
# only a flag actually given shows up in args
GENERATION = {"n": 1000, "seed": 0, "dist": "uniform", "trials": 1}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bench",
        description="Verified integer-sorting benchmark with word-op counting.",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--algo", choices=ALGOS, default="fusion")
    unset = argparse.SUPPRESS  # see GENERATION
    p.add_argument("--n", type=int, default=unset,
                   help="number of keys to generate (default 1000; not with --in)")
    p.add_argument("--seed", type=int, default=unset,
                   help="input seed (default 0; not with --in)")
    p.add_argument("--dist", choices=DISTS, default=unset,
                   help="key distribution (default uniform; not with --in)")
    p.add_argument("--width", type=int, choices=WIDTHS, default=64)
    p.add_argument("--cap", type=int, default=7, help="max keys per tree node")
    p.add_argument("--trials", type=int, default=unset,
                   help="timed runs (default 1; not with --in)")
    p.add_argument("--strategy", choices=STRATEGIES, default=unset,
                   help="sketch strategy (default multiplicative; only with "
                        "--algo fusion)")
    p.add_argument("--csv", metavar="PATH",
                   help="append one CSV row per trial (not with --in or --demo)")
    p.add_argument("--demo", action="store_true",
                   help="print the worked-example trace and exit "
                        "(not with --in, --out or --csv)")
    p.add_argument("--dot", metavar="PATH",
                   help="with --demo: write the demo compressed trie as DOT")
    p.add_argument("--in", dest="infile", metavar="PATH",
                   help="read keys from a file and sort them once instead of "
                        "generating (decimal lines, or binary with the key-file "
                        "header); not with --n, --seed, --dist or --trials")
    p.add_argument("--out", metavar="PATH", help="write the sorted keys")
    p.add_argument("--out-binary", action="store_true",
                   help="write --out in the binary key-file format (only with --out)")
    return p


def _sort_file(args) -> int:
    values, file_width = read_keys(args.infile, args.width)
    width = file_width or args.width
    out = _run_once(BenchConfig(args.algo, len(values), width=width, cap=args.cap,
                                strategy=args.strategy), values)[0]
    if out != sorted(values):
        raise VerificationFailed("file sort disagrees with the reference sort")
    if args.out:
        write_keys(args.out, out, width, binary=args.out_binary)
        print(f"sorted {len(out)} keys ({args.algo}, width {width}) -> {args.out}")
    else:
        for v in out:
            print(v)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except GoldenMismatch as exc:
        print(f"worked example DEVIATED: {exc}", file=sys.stderr)
        return 2
    except BadKeyFile as exc:
        print(f"bad key file {args.infile}: {exc}", file=sys.stderr)
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


def _run(args) -> int:
    given = vars(args)
    if args.out_binary and not args.out:
        raise InvalidConfig("--out-binary is used only with --out")
    if args.demo:
        for flag, dest in (("--in", "infile"), ("--out", "out"), ("--csv", "csv")):
            if given[dest]:
                raise InvalidConfig(f"{flag} is not used with --demo "
                                    "(the worked example has its own keys)")
        print(demo_walkthrough(dot_path=args.dot), end="")
        return 0
    if args.dot:
        raise InvalidConfig("--dot is written only with --demo")
    if "strategy" in given and args.algo != "fusion":
        raise InvalidConfig("--strategy is used only with --algo fusion")
    given.setdefault("strategy", MULTIPLICATIVE)  # given is args' own dict
    if args.infile:
        if args.csv:
            raise InvalidConfig("--csv is not written with --in (a file sort has no trials)")
        for name in GENERATION:
            if name in given:
                raise InvalidConfig(f"--{name} is not used with --in "
                                    "(the file's keys are sorted once)")
        return _sort_file(args)

    cfg = BenchConfig(algo=args.algo, width=args.width, cap=args.cap,
                      strategy=args.strategy,
                      **{k: given.get(k, v) for k, v in GENERATION.items()})
    records, out = run_with_output(cfg)
    if args.csv:
        write_csv(args.csv, records)
    if args.out:
        write_keys(args.out, out, cfg.width, binary=args.out_binary)

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
