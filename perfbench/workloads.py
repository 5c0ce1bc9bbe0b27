"""The benchmark's workloads, their seeded inputs and their correctness gate.

A workload is a model text, an exploration setting and the outcome that
exploration must reproduce.  The seed only permutes the order in which
the model text declares its transitions (seed 0 keeps the generated
order), so every seed must give the same states, edges, audit counters
and visited-key digest; ``expected.json`` records them once for all
seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from pidsym import ExploreOptions, Marking, Pid, state_key
from pidsym.models import fanout_text

EXPECTED_FILE = Path(__file__).with_name("expected.json")

# Each live process stays alive, spawns one child and hands it the live
# token, so pids and trees grow one level per step and no two reachable
# markings are equivalent.
CHAIN_TEXT = """\
# A chain: the live process spawns a child and passes it the live token.
net chain
place g GEN
place seed D
place live P
init seed { (0) }
trans start
  in g { (p, c) }
  in seed { (0) }
  out g { (p, c) }
  out live { (p) }
end
trans step
  in g { (p, c) }
  in live { (p) }
  out g { (p, c+1); (p.(c+1), 0) }
  out live { (p.(c+1)) }
end
"""

PROBE_DEPTH = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    text: Callable[[], str]
    opts: ExploreOptions
    probe: bool = False  # run the deep-pid probe after the timed runs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fanout7-stripped", lambda: fanout_text(7), ExploreOptions(mode="stripped")),
        Workload("fanout7-none", lambda: fanout_text(7), ExploreOptions(mode="none")),
        Workload(
            "chain200-stripped",
            lambda: CHAIN_TEXT,
            ExploreOptions(mode="stripped", max_states=200),
            probe=True,
        ),
        Workload("fanout5-audit", lambda: fanout_text(5), ExploreOptions(mode="stripped", validate=True)),
    )
}


def shuffle_transitions(text: str, seed: int) -> str:
    """Permute the ``trans ... end`` blocks of a model text; seed 0 is the identity."""
    lines = text.splitlines(keepends=True)
    head: list[str] = []
    blocks: list[list[str]] = []
    current: list[str] | None = None
    for line in lines:
        word = line.split("#", 1)[0].strip()
        if current is None and word.startswith("trans "):
            current = []
        if current is None:
            if blocks:
                raise ValueError("model text has content after its transitions")
            head.append(line)
            continue
        current.append(line)
        if word == "end":
            blocks.append(current)
            current = None
    if current is not None:
        raise ValueError("unterminated transition block")
    if seed:
        random.Random(seed).shuffle(blocks)
    return "".join(head + [line for block in blocks for line in block])


def model_text(w: Workload, seed: int) -> str:
    return shuffle_transitions(w.text(), seed)


def key_digest(keys) -> str:
    """sha256 over the sorted visited keys, each framed by its length."""
    h = hashlib.sha256()
    for key in sorted(keys):
        h.update(len(key).to_bytes(4, "big"))
        h.update(key)
    return h.hexdigest()


def outcome(space) -> dict:
    return {
        "states": space.state_count(),
        "edges": space.edge_count(),
        "truncated": space.truncated,
        "merges_audited": space.merges_audited,
        "audit_failures": space.audit_failures,
        "audit_skipped": space.audit_skipped,
        "key_digest": key_digest(space.states),
    }


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def gate(space, expected: dict) -> list[str]:
    """Mismatches between an explored quotient and the recorded outcome."""
    got = outcome(space)
    return [f"{k}: expected {expected[k]!r}, got {got[k]!r}" for k in expected if got[k] != expected[k]]


def chain_marking(depth: int) -> Marking:
    """The chain model's marking whose live process has pid 1.1...1 of the given length."""
    pids = [Pid((1,) * k) for k in range(1, depth + 1)]
    return Marking({"g": [(p, 1) for p in pids[:-1]] + [(pids[-1], 0)], "live": [(pids[-1],)]})


def deep_pid_probe(net) -> list[tuple[str, str | None]]:
    """Key a depth-1000 chain marking three ways; (call, error or None) per call.

    Errors are returned, never raised: the probe tracks a known defect
    and must not stop the run.
    """
    m = chain_marking(PROBE_DEPTH)
    calls = [
        ("state_key/expanded", lambda: state_key(net, m, "expanded")),
        ("state_key/stripped", lambda: state_key(net, m, "stripped")),
        ("canonical_bytes", m.canonical_bytes),
    ]
    out = []
    for name, call in calls:
        try:
            call()
            out.append((name, None))
        except Exception as exc:  # any error is the outcome being probed
            out.append((name, type(exc).__name__))
    return out
