"""Benchmark entry point.

    python3 perfbench/run.py --workload sort_uniform64 --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  Builds nothing: the package is imported
from ``src/`` next to this directory.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 2, with no result, when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("sort_uniform64", "sort_dense8", "query_mix")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import fusionsort
    except ImportError as exc:
        print(f"perfbench: cannot import fusionsort from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if Path(fusionsort.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: fusionsort imported from {fusionsort.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    from perfbench.core import Tally

    print(f"perfbench: {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()}",
          file=sys.stderr)
    tally = Tally()
    if args.trace:
        from perfbench.layers import UNITS, per_layer
        values = per_layer(args.workload, args.seed, args.seconds, tally,
                           ROOT / "perfbench" / "out")
    else:
        from perfbench.workloads import UNITS, end_to_end
        values = end_to_end(args.workload, args.seed, args.seconds, str(SRC),
                            tally)
    for note in tally.notes:
        print(f"perfbench: FAILED {note}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in UNITS.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
