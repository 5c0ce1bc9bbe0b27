"""Breadth-first reachability with pluggable symmetry reduction.

The visited set is keyed per reduction mode:

* ``none``     - canonical bytes of the concrete marking (no reduction);
* ``expanded`` - signature of the expanded pid-tree;
* ``stripped`` - signature of the stripped pid-tree (coarsest sound key);
* ``oracle``   - linear scan of representatives with the brute-force
  state-equivalence search (the baseline the signatures replace; exact,
  and infeasible beyond small pid counts).

The first marking discovered for a key becomes the class representative
and successors are computed from it, which is justified by the
bisimulation property of state equivalence.  Exploration is
deterministic: FIFO frontier, transitions in declaration order, bindings
in their canonical order.

With ``validate=True`` every merge of two distinct markings under one
key is audited: the pair must pass the equivalence oracle and the
successor-correspondence check.  Pairs whose pid sets exceed the oracle
bound are counted as skipped.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional

from . import oracle
from .equiv import state_key
from .net import InvalidNet, Marking, TNet, successors, validate

__all__ = ["ExploreOptions", "StateSpace", "explore", "compare_reductions", "MODES"]

MODES = ("none", "expanded", "stripped", "oracle")


@dataclass(frozen=True)
class ExploreOptions:
    mode: str = "stripped"
    max_states: int = 100000
    max_depth: Optional[int] = None
    validate: bool = False
    oracle_max_pids: int = oracle.DEFAULT_MAX_PIDS

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; pick one of {MODES}")
        if self.max_states < 1:
            raise ValueError("max_states must be >= 1")


@dataclass
class StateSpace:
    """The quotient graph computed by explore(), plus run statistics."""

    model: str
    mode: str
    initial_key: bytes
    states: dict  # key bytes -> representative Marking
    edges: list  # (source key, transition name, target key)
    truncated: bool
    max_depth_reached: int
    wall_ms: float
    merges_audited: int = 0
    audit_failures: int = 0
    audit_skipped: int = 0

    def state_count(self) -> int:
        return len(self.states)

    def edge_count(self) -> int:
        return len(self.edges)

    def report(self) -> dict:
        return {
            "model": self.model,
            "mode": self.mode,
            "states": len(self.states),
            "edges": len(self.edges),
            "truncated": self.truncated,
            "max_depth_reached": self.max_depth_reached,
            "wall_ms": round(self.wall_ms, 3),
            "merges_audited": self.merges_audited,
            "audit_failures": self.audit_failures,
            "audit_skipped": self.audit_skipped,
        }

    def to_json(self) -> str:
        return json.dumps(self.report(), indent=2, sort_keys=True)

    def to_dot(self) -> str:
        """The quotient graph with representative markings as labels."""
        ids = {key: i for i, key in enumerate(self.states)}
        lines = ["digraph statespace {", "  node [shape=box, fontsize=9];"]
        for key, marking in self.states.items():
            label = str(marking).replace('"', "'")
            shape = ', penwidth=2' if key == self.initial_key else ""
            lines.append(f'  s{ids[key]} [label="{label}"{shape}];')
        for src, tname, dst in self.edges:
            lines.append(f'  s{ids[src]} -> s{ids[dst]} [label="{tname}"];')
        lines.append("}")
        return "\n".join(lines)


class _Visited:
    """Key computation and membership, per reduction mode."""

    def __init__(self, net: TNet, mode: str, oracle_max_pids: int):
        self.net = net
        self.mode = mode
        self.oracle_max_pids = oracle_max_pids
        self.reps: list[tuple[bytes, Marking]] = []  # oracle mode only

    def key_of(self, m: Marking) -> bytes:
        if self.mode == "none":
            return m.canonical_bytes()
        if self.mode in ("expanded", "stripped"):
            return state_key(self.net, m, self.mode).data
        # oracle mode: the key of a marking is the key of the first
        # representative it is equivalent to, else its own bytes.
        for key, rep in self.reps:
            if oracle.state_equivalent(self.net, rep, m, max_pids=self.oracle_max_pids) is not None:
                return key
        return m.canonical_bytes()

    def remember(self, key: bytes, m: Marking):
        if self.mode == "oracle":
            self.reps.append((key, m))


def explore(net: TNet, opts: ExploreOptions = ExploreOptions()) -> StateSpace:
    """BFS fixpoint over the chosen quotient, from the initial marking.

    Raises InvalidNet when the net breaks a t-net requirement, and
    propagates TooManyPids in oracle mode (where skipping a comparison
    would corrupt the counts).
    """
    violations = validate(net)
    if violations:
        raise InvalidNet(f"net {net.name!r} is not a valid t-net", violations)

    t0 = time.perf_counter()
    visited = _Visited(net, opts.mode, opts.oracle_max_pids)
    space = StateSpace(
        model=net.name,
        mode=opts.mode,
        initial_key=b"",
        states={},
        edges=[],
        truncated=False,
        max_depth_reached=0,
        wall_ms=0.0,
    )

    init_key = visited.key_of(net.init)
    space.initial_key = init_key
    space.states[init_key] = net.init
    visited.remember(init_key, net.init)
    frontier: list[tuple[bytes, int]] = [(init_key, 0)]
    audited: set[tuple[bytes, bytes]] = set()

    def audit(rep: Marking, other: Marking, key: bytes):
        if rep == other:
            return
        tag = (key, other.canonical_bytes())
        if tag in audited:
            return
        audited.add(tag)
        try:
            h = oracle.state_equivalent(net, rep, other, max_pids=opts.oracle_max_pids)
            space.merges_audited += 1
            if h is None:
                space.audit_failures += 1
            elif not oracle.check_successor_correspondence(net, rep, other, h, max_pids=opts.oracle_max_pids):
                space.audit_failures += 1
        except oracle.TooManyPids:
            space.audit_skipped += 1

    head = 0
    while head < len(frontier):
        key, depth = frontier[head]
        head += 1
        space.max_depth_reached = max(space.max_depth_reached, depth)
        if opts.max_depth is not None and depth >= opts.max_depth:
            continue
        rep = space.states[key]
        for t, _, succ in successors(net, rep):
            succ_key = visited.key_of(succ)
            if succ_key in space.states:
                space.edges.append((key, t.name, succ_key))
                if opts.validate:
                    audit(space.states[succ_key], succ, succ_key)
                continue
            if len(space.states) >= opts.max_states:
                space.truncated = True
                continue
            space.states[succ_key] = succ
            visited.remember(succ_key, succ)
            space.edges.append((key, t.name, succ_key))
            frontier.append((succ_key, depth + 1))

    space.wall_ms = (time.perf_counter() - t0) * 1000.0
    return space


def compare_reductions(net: TNet, opts: ExploreOptions = ExploreOptions()) -> dict:
    """Run every reduction mode and tabulate counts, ratios and times.

    Oracle mode is skipped (with a reason) when some state exceeds the
    pid bound.  The returned dict is JSON-ready.
    """
    rows = []
    baseline: Optional[int] = None
    for mode in MODES:
        mode_opts = ExploreOptions(
            mode=mode,
            max_states=opts.max_states,
            max_depth=opts.max_depth,
            validate=opts.validate and mode != "oracle",
            oracle_max_pids=opts.oracle_max_pids,
        )
        try:
            space = explore(net, mode_opts)
        except oracle.TooManyPids as exc:
            rows.append({"mode": mode, "skipped": str(exc)})
            continue
        report = space.report()
        if mode == "none":
            baseline = report["states"]
        if baseline:
            report["reduction_ratio"] = round(report["states"] / baseline, 6)
        rows.append(report)
    return {"model": net.name, "modes": rows}
