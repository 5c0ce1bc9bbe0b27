#!/usr/bin/env python3
"""Benchmark of pidsym's explore(): end-to-end metrics, or a traced per-layer replay.

Run from the repository root:

    python3 perfbench/run.py --workload fanout7-stripped --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, plus the summary ratio

``--trace 0`` times untraced ``explore`` calls for ``--seconds`` seconds and
reports explore_s, us_per_edge, setup_s, peak_kib_per_state and
ok_share.  ``--trace 1`` alternates untraced explores with traced replays
(see layertrace.py) for ``--seconds`` seconds, reports the per-layer metrics
and writes the spans to ``perfbench/out/<workload>.spans.csv``.

Every explored quotient passes the correctness gate of workloads.py.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit codes: 0 when
every check passed, 1 when some output was wrong, 2 when the program's
sources are not found next to this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def import_program():
    """Import pidsym from the checkout's ``src/`` only; exit 2 when it is not there."""
    if not (SRC / "pidsym" / "__init__.py").is_file():
        print(f"error: no pidsym sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import pidsym

    if Path(pidsym.__file__).resolve().parent != (SRC / "pidsym").resolve():
        print(f"error: pidsym was imported from {pidsym.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def run(name: str, seed: int, seconds: float, trace: bool, checks) -> dict:
    from measure import measure, traced
    from workloads import WORKLOADS

    try:
        return (traced if trace else measure)(WORKLOADS[name], seed, seconds, checks)
    except Exception as exc:  # an exception is a failed operation, reported below
        traceback.print_exc()
        checks.attempted += 1
        checks.failed += 1
        checks.problems.append(f"{name}: {type(exc).__name__}: {exc}")
        return {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    from measure import Checks
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            ap.error(f"unknown workload {name!r}; pick one of {', '.join(WORKLOADS)} or 'all'")

    checks = Checks()
    results = {name: run(name, args.seed, args.seconds, bool(args.trace), checks) for name in names}
    for name, metrics in results.items():
        for metric, (value, unit) in metrics.items():
            print(f"{name:18} {metric:44} {value:14.6g} {unit}")
    if len(names) > 1 and not args.trace and all(results.values()):
        ratio = results["fanout7-stripped"]["us_per_edge"][0] / results["fanout7-none"]["us_per_edge"][0]
        print(f"us_per_edge fanout7-stripped / fanout7-none = {ratio:.2f} (not gated)")
    for problem in checks.problems:
        print(f"FAILED {problem}")

    if len(names) == 1:
        flat = results[names[0]]
    else:
        flat = {f"{name}.{metric}": v for name, metrics in results.items() for metric, v in metrics.items()}
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in flat.items()},
            }
        )
    )
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
