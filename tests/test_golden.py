"""Golden signature bytes: the keys are the contract, refactors must keep them.

The corpus is every marking reached by a ``none``-mode exploration of the
bundle (spawn_reap truncated at 300 states).  For each model and each tree
mode the sha256 of its sorted ``state_key`` bytes is pinned.  A change that
moves a digest changes the visited-set keys, so the digests are never updated
to follow the code.
"""

import hashlib

import pytest

from pidsym import (
    ExploreOptions,
    expand,
    explore,
    load_model,
    represent,
    retained_pids,
    state_key,
    strip,
    strip_marking,
)

# (model, fanout width, max_states) -> (markings, expanded digest, stripped digest)
GOLDEN = {
    ("fanout_n", 3, 100000): (
        41,
        "ebdad05cab59113827f2206057ca706614b247406184d3d28d92cef50c902686",
        "18ca53e26adc18b6c713f12b6266bcd91b05d8cda0fc8987733d89d17622b1ba",
    ),
    ("fanout_n", 5, 100000): (
        365,
        "a0800739b0dc151f97b86b739b1d31ef6fc84444ffcfc59e5d83f6809c4cc532",
        "acd7e33d6353eed4232c2e8e08a8114cbb087d5e260d702a339c7ff626c00068",
    ),
    ("clean_join", None, 100000): (
        22,
        "a2851ec52a8e141ffc3ca12b496b0c6e5137a4d57962625c1fdc2533fc353e57",
        "a2851ec52a8e141ffc3ca12b496b0c6e5137a4d57962625c1fdc2533fc353e57",
    ),
    ("ring", None, 100000): (
        4,
        "4df97b21bb01750e5a23c6220dc6f91a573028dc6839bc4224d51d960721704e",
        "4df97b21bb01750e5a23c6220dc6f91a573028dc6839bc4224d51d960721704e",
    ),
    ("spawn_reap", None, 300): (
        300,
        "48aa14fb342d98d002aa6ee4206340ebd24b106f101b3abaf0881d02c73869b9",
        "48aa14fb342d98d002aa6ee4206340ebd24b106f101b3abaf0881d02c73869b9",
    ),
}


def _digest(keys: list[bytes]) -> str:
    h = hashlib.sha256()
    for k in sorted(keys):
        h.update(len(k).to_bytes(4, "big") + k)
    return h.hexdigest()


@pytest.mark.parametrize("name,n,max_states", list(GOLDEN), ids=str)
def test_signature_bytes_are_pinned(name, n, max_states):
    net = load_model(name, n=n)
    markings = list(explore(net, ExploreOptions(mode="none", max_states=max_states)).states.values())
    count, expanded_digest, stripped_digest = GOLDEN[(name, n, max_states)]
    assert len(markings) == count
    assert _digest([state_key(net, m, "expanded").data for m in markings]) == expanded_digest
    assert _digest([state_key(net, m, "stripped").data for m in markings]) == stripped_digest
    for m in markings:
        expanded = represent(net, m)
        stripped = strip_marking(net, m)
        assert stripped == strip(expanded, retained_pids(net, m))
        assert expand(stripped) == expanded
