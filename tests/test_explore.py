"""The exploration engine: quotients, determinism, truncation, reports."""

import gc
import json

import pytest

from pidsym import (
    ExploreOptions,
    InvalidNet,
    Marking,
    Pid,
    TNet,
    compare_reductions,
    explore,
    load_model,
    parse_model,
    state_key,
)
from pidsym.net import PlaceDecl, enabled, fire

P = Pid.parse


def test_invalid_net_is_refused():
    bad = TNet("nogen", (PlaceDecl("s", ("D",)),), (), Marking())
    with pytest.raises(InvalidNet):
        explore(bad)


def test_net_with_no_enabled_transitions():
    net = TNet("still", (PlaceDecl("g", ("P", "D"), generator=True),), (), Marking({"g": [(P("1"), 0)]}))
    space = explore(net)
    assert space.state_count() == 1
    assert space.edge_count() == 0
    assert not space.truncated


def test_bad_options():
    with pytest.raises(ValueError):
        ExploreOptions(mode="fast")
    with pytest.raises(ValueError):
        ExploreOptions(max_states=0)


def test_ring_is_a_single_path_in_every_mode():
    net = load_model("ring")
    for mode in ("none", "expanded", "stripped", "oracle"):
        space = explore(net, ExploreOptions(mode=mode))
        assert space.state_count() == 4
        assert space.edge_count() == 3
        assert space.max_depth_reached == 3


def test_spawn_reap_truncates_and_collapses():
    net = load_model("spawn_reap")
    none = explore(net, ExploreOptions(mode="none", max_states=2000))
    assert none.truncated and none.state_count() == 2000
    assert all(src in none.states and dst in none.states for src, _, dst in none.edges)
    stripped = explore(net, ExploreOptions(mode="stripped"))
    assert not stripped.truncated
    oracle = explore(net, ExploreOptions(mode="oracle"))
    assert stripped.state_count() == oracle.state_count()


def test_mode_monotonicity_on_the_bundle():
    for name in ("spawn_reap", "clean_join", "ring", "fanout_n"):
        net = load_model(name)
        cap = 3000
        none = explore(net, ExploreOptions(mode="none", max_states=cap))
        expanded = explore(net, ExploreOptions(mode="expanded", max_states=cap))
        stripped = explore(net, ExploreOptions(mode="stripped", max_states=cap))
        assert stripped.state_count() <= expanded.state_count() <= none.state_count()


def test_fanout_expanded_is_strictly_coarser_than_none():
    net = load_model("fanout_n")
    none = explore(net, ExploreOptions(mode="none"))
    expanded = explore(net, ExploreOptions(mode="expanded"))
    stripped = explore(net, ExploreOptions(mode="stripped"))
    assert stripped.state_count() < expanded.state_count() < none.state_count()


def test_exploration_is_deterministic():
    net = load_model("fanout_n")
    a = explore(net, ExploreOptions(mode="stripped"))
    b = explore(net, ExploreOptions(mode="stripped"))
    assert list(a.states) == list(b.states)
    assert a.edges == b.edges


def test_max_depth():
    net = load_model("spawn_reap")
    space = explore(net, ExploreOptions(mode="stripped", max_depth=2))
    assert space.max_depth_reached <= 2
    full = explore(net, ExploreOptions(mode="stripped"))
    assert space.state_count() < full.state_count()


def test_representative_policy_first_marking_wins():
    net = load_model("spawn_reap")
    space = explore(net, ExploreOptions(mode="stripped"))
    for key, marking in space.states.items():
        assert state_key(net, marking, "stripped").data == key


@pytest.mark.parametrize("name", ["spawn_reap", "clean_join", "ring", "fanout_n"])
def test_edges_are_witnessed_by_refiring(name):
    net = load_model(name)
    space = explore(net, ExploreOptions(mode="stripped"))
    for src, tname, dst in space.edges:
        rep = space.states[src]
        succs = {
            state_key(net, fire(net, rep, t, b), "stripped").data
            for t, b in enabled(net, rep)
            if t.name == tname
        }
        assert dst in succs


def test_validation_audit_is_clean_on_the_bundle():
    for name in ("spawn_reap", "clean_join", "ring", "fanout_n"):
        net = load_model(name)
        space = explore(
            net, ExploreOptions(mode="stripped", max_states=5000, validate=True, oracle_max_pids=8)
        )
        assert space.audit_failures == 0


def test_report_schema():
    net = load_model("ring")
    space = explore(net, ExploreOptions(mode="stripped"))
    report = space.report()
    assert set(report) == {
        "model",
        "mode",
        "states",
        "edges",
        "truncated",
        "max_depth_reached",
        "wall_ms",
        "merges_audited",
        "audit_failures",
        "audit_skipped",
    }
    assert report["model"] == "ring" and report["mode"] == "stripped"
    parsed = json.loads(space.to_json())
    assert parsed["states"] == 4


def test_dot_export_names_transitions():
    net = load_model("ring")
    space = explore(net, ExploreOptions(mode="none"))
    dot = space.to_dot()
    assert dot.startswith("digraph")
    assert 'label="setup"' in dot and 'label="pass"' in dot


def test_compare_reductions_on_fanout():
    net = load_model("fanout_n")
    report = compare_reductions(net, ExploreOptions(max_states=5000))
    rows = {row["mode"]: row for row in report["modes"]}
    assert rows["none"]["states"] == 41
    assert rows["stripped"]["states"] == rows["oracle"]["states"] == 30
    assert rows["stripped"]["reduction_ratio"] < 1.0


def test_compare_reductions_skips_oracle_when_infeasible():
    net = load_model("fanout_n", n=6)
    report = compare_reductions(net, ExploreOptions(max_states=5000, oracle_max_pids=8))
    rows = {row["mode"]: row for row in report["modes"]}
    assert "skipped" in rows["oracle"]
    assert rows["stripped"]["states"] > 0


# The perfbench chain: each live process spawns one child and hands it
# the live token, so pids and trees grow one level per step.
CHAIN_TEXT = """\
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


def test_explore_leaves_no_cyclic_garbage():
    """Every object explore() drops is freed by reference counting alone."""
    runs = [(load_model("fanout_n", n=3), 100000), (parse_model(CHAIN_TEXT), 50)]
    gc.collect()
    gc.disable()
    try:
        for net, max_states in runs:
            for mode in ("none", "expanded", "stripped"):
                explore(net, ExploreOptions(mode=mode, max_states=max_states))
                assert gc.collect() == 0, (net.name, mode)
    finally:
        gc.enable()
