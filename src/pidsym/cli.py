"""Command line front end.

Subcommands::

    pidsym check <model>
    pidsym explore <model> [--mode M] [--max-states N] [--max-depth D]
                   [--validate] [--dot FILE] [--json FILE] [--fail-on-truncate]
    pidsym compare <model> [--max-states N] [--oracle-max-pids K]
    pidsym canonize <model> --marking <file> [--dot-prefix PREFIX]

Exit codes: 0 success, 1 violations or errors, 2 truncation under
--fail-on-truncate.  ``<model>`` is a .tnet file path or the name of a
bundled model (spawn_reap, fanout_n, clean_join, ring).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .equiv import signature
from .explore import ExploreOptions, MODES, compare_reductions, explore
from .models import MODEL_NAMES, load_model
from .net import InvalidNet, TNet
from .oracle import TooManyPids
from .parser import ModelSyntaxError, ModelValidationError, parse_marking, parse_model
from .pidtree import to_dot
from .represent import represent, strip_marking

__all__ = ["main"]


def _load(model: str) -> TNet:
    path = Path(model)
    if path.exists():
        return parse_model(path.read_text())
    if model in MODEL_NAMES:
        return load_model(model)
    raise FileNotFoundError(f"no such model file or bundled model: {model}")


def _cmd_check(args) -> int:
    try:
        net = _load(args.model)
    except ModelValidationError as exc:
        for v in exc.violations:
            print(str(v), file=sys.stderr)
        return 1
    print(f"ok: {net.name} ({len(net.places)} places, {len(net.transitions)} transitions)")
    return 0


def _cmd_explore(args) -> int:
    net = _load(args.model)
    opts = ExploreOptions(
        mode=args.mode,
        max_states=args.max_states,
        max_depth=args.max_depth,
        validate=args.validate,
        oracle_max_pids=args.oracle_max_pids,
    )
    try:
        space = explore(net, opts)
    except TooManyPids as exc:
        print(f"oracle infeasible: {exc}", file=sys.stderr)
        return 1
    print(space.to_json())
    if args.json:
        Path(args.json).write_text(space.to_json() + "\n")
    if args.dot:
        Path(args.dot).write_text(space.to_dot() + "\n")
    if args.validate and space.audit_failures:
        print(f"audit failures: {space.audit_failures}", file=sys.stderr)
        return 1
    if args.fail_on_truncate and space.truncated:
        return 2
    return 0


def _cmd_compare(args) -> int:
    net = _load(args.model)
    opts = ExploreOptions(max_states=args.max_states, oracle_max_pids=args.oracle_max_pids)
    report = compare_reductions(net, opts)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_canonize(args) -> int:
    net = _load(args.model)
    marking = parse_marking(Path(args.marking).read_text(), net)
    for label, tree in (("expanded", represent(net, marking)), ("stripped", strip_marking(net, marking))):
        dot = to_dot(tree, graph_name=f"{net.name}_{label}")
        print(f"// {label} signature: {signature(tree).hex()}")
        print(dot)
        if args.dot_prefix:
            Path(f"{args.dot_prefix}_{label}.dot").write_text(dot + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pidsym", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a model against the t-net requirements")
    p.add_argument("model")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("explore", help="build the reachable state space")
    p.add_argument("model")
    p.add_argument("--mode", choices=MODES, default="stripped")
    p.add_argument("--max-states", type=int, default=100000)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--validate", action="store_true", help="audit every merge with the equivalence oracle")
    p.add_argument("--oracle-max-pids", type=int, default=10)
    p.add_argument("--dot", metavar="FILE", help="write the quotient graph as DOT")
    p.add_argument("--json", metavar="FILE", help="write the run report as JSON")
    p.add_argument("--fail-on-truncate", action="store_true")
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser("compare", help="run all reduction modes and tabulate")
    p.add_argument("model")
    p.add_argument("--max-states", type=int, default=100000)
    p.add_argument("--oracle-max-pids", type=int, default=10)
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("canonize", help="print canonical pid-trees of a marking")
    p.add_argument("model")
    p.add_argument("--marking", required=True, metavar="FILE")
    p.add_argument("--dot-prefix", metavar="PREFIX", help="also write PREFIX_expanded.dot / PREFIX_stripped.dot")
    p.set_defaults(fn=_cmd_canonize)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ModelSyntaxError, ModelValidationError, InvalidNet, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
