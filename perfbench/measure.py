"""The two kinds of run: timed untraced explores, and traced replays.

``measure`` gives the end-to-end metrics of a workload and ``traced`` its
per-layer metrics; both check every quotient they explore and count
their operations in a ``Checks``.
"""

from __future__ import annotations

import gc
import random
import statistics
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from layertrace import Tracer, explore_root_seconds, layer_metrics, replay, traced_setup, write_spans
from pidsym import explore, state_key
from pidsym.net import validate
from pidsym.parser import parse_model
from workloads import chain_marking, deep_pid_probe, gate, load_expected, model_text

OUT = Path(__file__).resolve().parent / "out"

MIN_SAMPLES = 3  # timed explores per run, even when they overrun the run's seconds
SETUP_REPS = 20  # set-ups (well under a millisecond each) in every gap between explores
CALIBRATION_REPS = 5  # calibration loops (about 35 ms each) in every gap between explores

# The calibration loop's time on the host that defined the benchmark, an
# otherwise idle 2-core Intel Xeon VM at 2.1 GHz running Python 3.11.7.
# Scaled times are seconds on that host when undisturbed.
CALIBRATION_REFERENCE_S = 0.032


class Checks:
    """Counts of attempted and failed operations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


def calibration_loop() -> int:
    """Fixed pure-Python work with a working set of a few MB, sharing no code with pidsym."""
    rng = random.Random(7)
    table = {}
    for i in range(20000):
        k = (rng.randrange(1000), rng.randrange(1000))
        table[k] = (i, (k, str(i)), [i])
    return sum(table[k][0] for k in sorted(table))


@dataclass
class Gap:
    """What is timed between two explores: set-ups, then calibration loops."""

    setups: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)
    valid: bool = True  # every set-up gave a net without violations


def timed_gap(w, seed: int, checks: Checks):
    """One gap's set-ups (text generation, parse_model, validate) and calibration loops; the last net."""
    gap = Gap()
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        net = parse_model(model_text(w, seed))
        violations = validate(net)
        gap.setups.append(perf_counter() - t0)
        gap.valid &= checks.record("setup", [str(v) for v in violations])
    for _ in range(CALIBRATION_REPS):
        gc.collect()
        t0 = perf_counter()
        calibration_loop()
        gap.calibrations.append(perf_counter() - t0)
    return net, gap


def timed_explore(net, opts):
    gc.collect()
    t0 = perf_counter()
    space = explore(net, opts)
    return perf_counter() - t0, space


def measure(w, seed: int, seconds: float, checks: Checks) -> dict:
    """The end-to-end metrics of one workload, from untraced runs."""
    expected = load_expected()[w.name]
    ok = {}  # the checks behind ok_share, by kind

    net, gap = timed_gap(w, seed, checks)
    gaps = [gap]
    samples = []
    gated = True
    start = perf_counter()
    while True:
        dt, space = timed_explore(net, w.opts)
        samples.append(dt)
        gated &= checks.record("explore", gate(space, expected))
        gaps.append(timed_gap(w, seed, checks)[1])
        if len(samples) >= MIN_SAMPLES and perf_counter() - start + statistics.median(samples) > seconds:
            break
    ok["setup"] = all(g.valid for g in gaps)
    ok["explore"] = gated

    gc.collect()
    tracemalloc.start()
    try:
        space = explore(net, w.opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ok["memory"] = checks.record("memory pass", gate(space, expected))

    if w.probe:
        # The probe marking must be the chain's own: compare its depth-199
        # instance with the last representative of the explored quotient.
        last = list(space.states.values())[-1]
        ok["probe marking"] = checks.record(
            "probe marking", [] if chain_marking(199) == last else ["chain_marking(199) is not the last state"]
        )
        for call, error in deep_pid_probe(net):
            ok[f"probe {call}"] = error is None
            print(f"deep-pid probe {call}: {error or 'ok'}")

    # Other tenants of the host slow this process down, in spells from a
    # few seconds to longer than a run. Each timing is scaled by the speed
    # of the host around it, read from the calibration loops of the
    # adjacent gaps, and the run reports the median of the scaled times.
    def scale(*near: Gap) -> float:
        return CALIBRATION_REFERENCE_S / statistics.median(t for g in near for t in g.calibrations)

    explore_s = statistics.median(dt * scale(gaps[i], gaps[i + 1]) for i, dt in enumerate(samples))
    setup_s = statistics.median(min(g.setups) * scale(g) for g in gaps)
    q = statistics.quantiles(samples, n=4)
    print(
        f"{w.name}: {len(samples)} timed explores, wall min {min(samples):.4f} s, "
        f"quartiles {q[0]:.4f} / {q[1]:.4f} / {q[2]:.4f} s; {len(gaps)} gaps of {SETUP_REPS} set-ups "
        f"and {CALIBRATION_REPS} calibration loops, calibration median "
        f"{statistics.median(t for g in gaps for t in g.calibrations) * 1e3:.2f} ms"
    )
    if not all(ok.values()):
        print("failed checks: " + ", ".join(k for k, v in ok.items() if not v))
    return {
        "explore_s": (explore_s, "s"),
        "us_per_edge": (explore_s / expected["edges"] * 1e6, "us"),
        "setup_s": (setup_s, "s"),
        "peak_kib_per_state": (peak / 1024 / expected["states"], "KiB"),
        "ok_share": (sum(ok.values()) / len(ok), "ratio"),
    }


def check_replay(net, w, space, rp) -> list[str]:
    """The replay must rebuild explore's quotient, and every key must be state_key's."""
    problems = []
    if list(rp.keys) != list(space.states) or list(rp.keys.values()) != list(space.states.values()):
        problems.append("replayed visited set differs from explore's")
    for counter in ("truncated", "merges_audited", "audit_failures", "audit_skipped"):
        if getattr(rp, counter) != getattr(space, counter):
            problems.append(f"{counter}: explore {getattr(space, counter)!r}, replay {getattr(rp, counter)!r}")
    if rp.edges != space.edge_count():
        problems.append(f"edges: explore {space.edge_count()}, replay {rp.edges}")
    outside = 0
    for succ, key, _, _ in rp.record:
        if w.opts.mode != "none" and key != state_key(net, succ, w.opts.mode).data:
            problems.append(f"replayed key differs from state_key for {succ}")
        outside += key not in space.states
    if outside != rp.successors - rp.edges:
        problems.append(f"{outside} replayed keys are not in the quotient")
    return problems


def traced(w, seed: int, seconds: float, checks: Checks) -> dict:
    """The per-layer metrics of one workload, from traced replays."""
    expected = load_expected()[w.name]
    tr = Tracer()
    explore_samples = []
    first = None
    start = perf_counter()
    while True:
        net, violations = traced_setup(tr, model_text(w, seed))
        checks.record("setup", [str(v) for v in violations])
        dt, space = timed_explore(net, w.opts)
        explore_samples.append(dt)
        checks.record("explore", gate(space, expected))
        gc.collect()
        rp = replay(net, w.opts, space, tr, record=first is None)
        checks.record("replay", check_replay(net, w, space, rp))
        if first is None:
            first = rp
        if perf_counter() - start + 2 * statistics.median(explore_samples) > seconds:
            break
    write_spans(tr.spans, OUT / f"{w.name}.spans.csv")

    rp = first
    pid_lens = [len(p) for m, _, _, _ in rp.record for p in m.all_pids()]
    expanded = [e.node_count() for _, _, e, _ in rp.record if e is not None]
    keyed = [t.node_count() for _, _, _, t in rp.record if t is not None and w.opts.mode == "stripped"]
    tried = rp.merges_audited + rp.audit_skipped
    metrics = layer_metrics(tr.spans)
    metrics.update(
        {
            "net.bindings_per_state": (rp.bindings / len(space.states), "count"),
            "represent.expanded_nodes_mean": (statistics.fmean(expanded) if expanded else 0.0, "count"),
            "represent.stripped_nodes_mean": (statistics.fmean(keyed) if keyed else 0.0, "count"),
            "equiv.key_bytes_mean": (statistics.fmean(len(k) for _, k, _, _ in rp.record), "bytes"),
            "pid.len_max": (max(pid_lens), "count"),
            "pid.len_mean": (statistics.fmean(pid_lens), "count"),
            "explore.hit_ratio": (rp.hits / rp.successors, "ratio"),
            "oracle.audited": (rp.merges_audited, "count"),
            "oracle.skipped": (rp.audit_skipped, "count"),
            "oracle.useful_ratio": (rp.merges_audited / tried if tried else 0.0, "ratio"),
            "trace.overhead": (
                min(explore_root_seconds(tr.spans)) / min(explore_samples),
                "ratio",
            ),
        }
    )
    print(f"{w.name}: {len(explore_samples)} replays, spans in {OUT / (w.name + '.spans.csv')}")
    return metrics
