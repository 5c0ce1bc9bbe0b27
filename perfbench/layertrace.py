"""The traced replay: one explore() call re-enacted layer call by layer call.

``replay`` walks the representatives of an already explored quotient in
BFS order, exactly as ``pidsym.explore.explore`` does, and wraps every
call into a layer's public function in a span.  The spans are kept in
memory as ``(name, start_ns, end_ns, parent, step)`` rows; ``step`` is the
index of the representative being expanded (-1 outside the BFS), and the
parent of every layer span is the root span of its replay.  Spans are
timed from outside the program, so a layer's span covers everything that
layer calls (``fire`` includes its ``is_enabled`` re-check, ``represent``
includes the pid work it does).

The two ``pidtree.*`` spans re-run walks that ``equiv.signature`` already
performs, to price them separately; they are left out of every sum and
their time is taken off the replay total.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from time import perf_counter_ns as ns

from pidsym import oracle
from pidsym.equiv import signature
from pidsym.net import enabled, fire, validate
from pidsym.parser import parse_model
from pidsym.pidtree import is_sibling_ordered, relpath_map
from pidsym.represent import represent, retained_pids, strip

ROOT_SETUP = "setup"
ROOT_EXPLORE = "explore"

ENABLED = "net.enabled"
FIRE = "net.fire"
CANONICAL_BYTES = "net.canonical_bytes"
REPRESENT = "represent.represent"
RETAINED = "represent.retained_pids"
STRIP = "represent.strip"
SIGNATURE = "equiv.signature"
SIBLING_ORDERED = "pidtree.is_sibling_ordered"
RELPATH_MAP = "pidtree.relpath_map"
STATE_EQUIVALENT = "oracle.state_equivalent"
SUCCESSOR_CORRESPONDENCE = "oracle.check_successor_correspondence"
PARSE = "parser.parse_model"
VALIDATE = "net.validate"

LAYER_SPANS = (
    ENABLED,
    FIRE,
    CANONICAL_BYTES,
    REPRESENT,
    RETAINED,
    STRIP,
    SIGNATURE,
    SIBLING_ORDERED,
    RELPATH_MAP,
    STATE_EQUIVALENT,
    SUCCESSOR_CORRESPONDENCE,
    PARSE,
    VALIDATE,
)
REPEATED_WALKS = (SIBLING_ORDERED, RELPATH_MAP)


class Tracer:
    """Spans in memory; ``open``/``close`` bracket a root, ``add`` records a leaf."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.root = -1

    def open(self, name: str):
        self.root = len(self.spans)
        self.spans.append((name, ns(), 0, -1, -1))

    def close(self):
        name, start, _, parent, step = self.spans[self.root]
        self.spans[self.root] = (name, start, ns(), parent, step)
        self.root = -1

    def add(self, name: str, start: int, end: int, step: int = -1):
        self.spans.append((name, start, end, self.root, step))


def traced_setup(tr: Tracer, text: str):
    """Parse and validate a model text under one ``setup`` root span."""
    tr.open(ROOT_SETUP)
    t0 = ns()
    net = parse_model(text)
    tr.add(PARSE, t0, ns())
    t0 = ns()
    violations = validate(net)
    tr.add(VALIDATE, t0, ns())
    tr.close()
    return net, violations


@dataclass
class Replay:
    """What one replay saw, for the correctness check and the counts."""

    keys: dict = field(default_factory=dict)  # key -> representative, in insertion order
    edges: int = 0
    hits: int = 0
    successors: int = 0
    bindings: int = 0
    truncated: bool = False
    merges_audited: int = 0
    audit_failures: int = 0
    audit_skipped: int = 0
    # (successor, key, expanded tree or None, keyed tree or None), when recorded
    record: list = field(default_factory=list)


def replay(net, opts, space, tr: Tracer, record: bool = False) -> Replay:
    """Re-enact explore(net, opts) over the quotient ``space`` under one root span."""
    if opts.max_depth is not None or opts.mode not in ("none", "expanded", "stripped"):
        raise ValueError("the replay covers the none/expanded/stripped modes without max_depth")
    mode = opts.mode
    out = Replay()
    add = tr.add

    def key_of(m, step: int) -> bytes:
        if mode == "none":
            t0 = ns()
            key = m.canonical_bytes()
            add(CANONICAL_BYTES, t0, ns(), step)
            if record:
                out.record.append((m, key, None, None))
            return key
        t0 = ns()
        expanded = represent(net, m)
        t1 = ns()
        add(REPRESENT, t0, t1, step)
        tree = expanded
        if mode == "stripped":
            t0 = ns()
            kept = retained_pids(net, m)
            t1 = ns()
            add(RETAINED, t0, t1, step)
            t0 = ns()
            tree = strip(expanded, kept)
            t1 = ns()
            add(STRIP, t0, t1, step)
        t0 = ns()
        key = signature(tree).data
        t1 = ns()
        add(SIGNATURE, t0, t1, step)
        t0 = ns()
        is_sibling_ordered(tree)
        t1 = ns()
        add(SIBLING_ORDERED, t0, t1, step)
        t0 = ns()
        relpath_map(tree)
        t1 = ns()
        add(RELPATH_MAP, t0, t1, step)
        if record:
            out.record.append((m, key, expanded, tree))
        return key

    audited: set = set()

    def audit(rep, other, key: bytes, step: int):
        if rep == other:
            return
        t0 = ns()
        tag = (key, other.canonical_bytes())
        add(CANONICAL_BYTES, t0, ns(), step)
        if tag in audited:
            return
        audited.add(tag)
        t0 = ns()
        try:
            h = oracle.state_equivalent(net, rep, other, max_pids=opts.oracle_max_pids)
        except oracle.TooManyPids:
            add(STATE_EQUIVALENT, t0, ns(), step)
            out.audit_skipped += 1
            return
        add(STATE_EQUIVALENT, t0, ns(), step)
        out.merges_audited += 1
        if h is None:
            out.audit_failures += 1
            return
        t0 = ns()
        try:
            ok = oracle.check_successor_correspondence(net, rep, other, h, max_pids=opts.oracle_max_pids)
        except oracle.TooManyPids:
            add(SUCCESSOR_CORRESPONDENCE, t0, ns(), step)
            out.audit_skipped += 1  # explore counts this merge as audited and skipped
            return
        add(SUCCESSOR_CORRESPONDENCE, t0, ns(), step)
        if not ok:
            out.audit_failures += 1

    tr.open(ROOT_EXPLORE)
    t0 = ns()
    violations = validate(net)
    add(VALIDATE, t0, ns())
    if violations:
        tr.close()
        raise ValueError(f"net {net.name!r} is not a valid t-net")
    seen = out.keys
    seen[key_of(net.init, -1)] = net.init
    for step, rep in enumerate(space.states.values()):
        t0 = ns()
        moves = enabled(net, rep)
        add(ENABLED, t0, ns(), step)
        out.bindings += len(moves)
        for t, b in moves:
            t0 = ns()
            succ = fire(net, rep, t, b)
            add(FIRE, t0, ns(), step)
            succ_key = key_of(succ, step)
            out.successors += 1
            if succ_key in seen:
                out.hits += 1
                out.edges += 1
                if opts.validate:
                    audit(seen[succ_key], succ, succ_key, step)
                continue
            if len(seen) >= opts.max_states:
                out.truncated = True
                continue
            seen[succ_key] = succ
            out.edges += 1
    tr.close()
    return out


def _root_totals(spans):
    """Per root span: (root name, duration, children's summed duration, repeated-walk duration)."""
    roots = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent == -1:
            roots[i] = [name, end - start, 0, 0]
    for name, start, end, parent, _ in spans:
        if parent != -1:
            r = roots[parent]
            r[2] += end - start
            if name in REPEATED_WALKS:
                r[3] += end - start
    return list(roots.values())


def layer_metrics(spans) -> dict:
    """calls per replay, us_p50, us_p99 and share per layer span, plus explore.self_share.

    share is a span's summed self time over the replay total: the setup
    and explore roots together, minus the repeated walks.  Layer spans
    are leaves, so their self time is their duration.
    """
    durations: dict[str, list[int]] = {name: [] for name in LAYER_SPANS}
    for name, start, end, parent, _ in spans:
        if parent != -1:
            durations[name].append(end - start)
    roots = _root_totals(spans)
    replays = sum(name == ROOT_EXPLORE for name, _, _, _ in roots)
    total = sum(dur - walks for _, dur, _, walks in roots)
    layered = sum(kids - walks for _, _, kids, walks in roots)
    out = {}
    for name in LAYER_SPANS:
        d = durations[name]
        p50 = p99 = 0.0
        if len(d) == 1:
            p50 = p99 = d[0] / 1e3
        elif d:
            cuts = statistics.quantiles(d, n=100, method="inclusive")
            p50, p99 = cuts[49] / 1e3, cuts[98] / 1e3
        out[f"{name}.calls"] = (len(d) / replays, "count")
        out[f"{name}.us_p50"] = (p50, "us")
        out[f"{name}.us_p99"] = (p99, "us")
        out[f"{name}.share"] = (sum(d) / total, "ratio")
    out["explore.self_share"] = (1.0 - layered / total, "ratio")
    return out


def explore_root_seconds(spans) -> list[float]:
    """Durations of the explore roots, minus their repeated walks, in seconds."""
    return [(dur - walks) / 1e9 for name, dur, _, walks in _root_totals(spans) if name == ROOT_EXPLORE]


def write_spans(spans, path):
    """One CSV row per span: index, name, start_ns, end_ns, parent, step."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write("index,name,start_ns,end_ns,parent,step\n")
        for i, (name, start, end, parent, step) in enumerate(spans):
            f.write(f"{i},{name},{start},{end},{parent},{step}\n")
