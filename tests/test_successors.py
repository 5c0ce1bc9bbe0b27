"""The search step: ``successors`` agrees with ``enabled`` + ``fire`` everywhere.

The corpus is the one of ``test_golden.py``: every marking reached by a
``none``-mode exploration of the bundle.  On each marking the successor
step must list the same (transition, binding) pairs in the same order
as ``enabled``, with exactly the markings ``fire`` builds, and each
successor built by the step must be representation-equal to the marking
built from scratch out of its places.
"""

import pytest
from test_golden import GOLDEN

from pidsym import ExploreOptions, Marking, enabled, explore, fire, load_model, successors


@pytest.mark.parametrize("name,n,max_states", list(GOLDEN), ids=str)
def test_successors_match_enabled_and_fire(name, n, max_states):
    net = load_model(name, n=n)
    markings = list(explore(net, ExploreOptions(mode="none", max_states=max_states)).states.values())
    assert len(markings) == GOLDEN[(name, n, max_states)][0]
    for m in markings:
        steps = list(successors(net, m))
        assert steps == [(t, b, fire(net, m, t, b)) for t, b in enabled(net, m)]
        for _, _, succ in steps:
            fresh = Marking(dict(succ.items()))
            assert succ.items() == fresh.items()
            assert hash(succ) == hash(fresh)
            assert succ.canonical_bytes() == fresh.canonical_bytes()
