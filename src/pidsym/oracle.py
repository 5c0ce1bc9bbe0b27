"""Ground-truth state equivalence by exhaustive bijection search.

Two states are equivalent when some bijection between their pid-and-next
pid sets (1) maps generative pids onto generative pids, (2) commutes
with taking the next child, (3) preserves parent/ancestor over the pid
sets, (4) preserves the sibling relations over pids and next pids, and
(5) turns one data marking into the other by pid substitution.

The search is deliberately naive: the whole point of the tree signatures
is to avoid it.  It exists to validate them, and as the ``oracle``
reduction mode that gives exact quotients on small models.  Candidates
respecting (1) and (2) are enumerated in hierarchical order and checked
against (3)-(5); the first acceptance wins, and inputs with too many
pids raise TooManyPids so callers can skip the check.
"""

from __future__ import annotations

from itertools import permutations
from typing import Mapping, Optional

from .equiv import PidBijection
from .net import Marking, NotEnabled, TNet, fire, successors
from .pid import Pid
from .state import pids_of, state_of

__all__ = ["TooManyPids", "state_equivalent", "check_successor_correspondence"]

DEFAULT_MAX_PIDS = 10


class TooManyPids(RuntimeError):
    """The combined pid set exceeds the search bound; the caller should skip."""

    def __init__(self, count: int, bound: int):
        super().__init__(f"{count} pids exceed the oracle bound of {bound}")
        self.count = count
        self.bound = bound


def state_equivalent(
    net: TNet,
    m1: Marking,
    m2: Marking,
    max_pids: int = DEFAULT_MAX_PIDS,
    fixed: Optional[Mapping[Pid, Pid]] = None,
) -> Optional[PidBijection]:
    """Search for a bijection witnessing state equivalence of two markings.

    ``fixed`` pins part of the mapping (used by the successor
    correspondence check); candidates disagreeing with it are skipped.
    """
    s1, s2 = state_of(net, m1), state_of(net, m2)
    sets1, sets2 = pids_of(s1), pids_of(s2)

    d1 = sorted(sets1.pids | sets1.nextpids, key=lambda p: p.sort_key())
    d2 = sorted(sets2.pids | sets2.nextpids, key=lambda p: p.sort_key())
    if len(d1) != len(d2):
        return None
    if len(d1) > max_pids:
        raise TooManyPids(len(d1), max_pids)

    gen1, gen2 = list(s1.generative()), list(s2.generative())
    if len(gen1) != len(gen2):
        return None
    sigma1, sigma2 = s1.sigma, s2.sigma
    if sorted(place for place, _ in sigma1.items()) != sorted(place for place, _ in sigma2.items()):
        return None
    if any(len(sigma1.tokens(place)) != len(sigma2.tokens(place)) for place, _ in sigma1.items()):
        return None

    fixed = dict(fixed or {})
    pinned: dict[Pid, Pid] = {}
    for src, dst in fixed.items():
        if src in set(d1):
            if dst not in set(d2):
                return None
            pinned[src] = dst

    pid1 = set(sets1.pids)
    pid2 = set(sets2.pids)

    def admissible(h: dict[Pid, Pid]) -> bool:
        # Conditions 3 and 4: relation profiles must transport exactly.
        for dom, rels in ((pid1, ("<1", "<<")), (set(d1), ("#1", "##"))):
            for p in dom:
                for q in dom:
                    if p == q:
                        continue
                    hp, hq = h[p], h[q]
                    if "<1" in rels and p.is_parent_of(q) != hp.is_parent_of(hq):
                        return False
                    if "<<" in rels and p.is_ancestor_of(q) != hp.is_ancestor_of(hq):
                        return False
                    if "#1" in rels and p.is_prev_sibling_of(q) != hp.is_prev_sibling_of(hq):
                        return False
                    if "##" in rels and p.is_earlier_sibling_of(q) != hp.is_earlier_sibling_of(hq):
                        return False
        # Condition 5: the data marking transports by substitution.
        return sigma1.replace_pids(h) == sigma2

    next1 = {p: s1.next_of(p) for p in gen1}
    next2 = {p: s2.next_of(p) for p in gen2}

    for image in permutations(gen2):
        h0: dict[Pid, Pid] = {}

        def assign(src: Pid, dst: Pid) -> bool:
            if src in h0:
                return h0[src] == dst
            if src in pinned and pinned[src] != dst:
                return False
            h0[src] = dst
            return True

        ok = True
        for src, dst in zip(gen1, image):
            # Condition 1 (generative to generative) and condition 2
            # (next pids commute) hold by construction.
            if not assign(src, dst) or not assign(next1[src], next2[dst]):
                ok = False
                break
        if not ok or len(set(h0.values())) != len(h0):
            continue

        rest1 = [p for p in d1 if p not in h0]
        taken = set(h0.values())
        rest2 = [p for p in d2 if p not in taken]
        if len(rest1) != len(rest2):
            continue

        for tail in permutations(rest2):
            h = dict(h0)
            ok = True
            for src, dst in zip(rest1, tail):
                if src in pinned and pinned[src] != dst:
                    ok = False
                    break
                h[src] = dst
            if not ok:
                continue
            if admissible(h):
                return PidBijection.of(h)
    return None


def check_successor_correspondence(
    net: TNet,
    m1: Marking,
    m2: Marking,
    h: PidBijection,
    max_pids: int = DEFAULT_MAX_PIDS,
) -> bool:
    """Check the bisimulation property of an equivalence witness.

    Every transition enabled at m1 must be enabled at m2 under the
    h-renamed binding, with successors equivalent through a bijection
    agreeing with h on the common domain, and symmetrically.
    """

    gen = net.generator.name

    def rename(t, b: dict, through: PidBijection, mb: Marking) -> Optional[dict]:
        """h∘β: pids map through h; counters rebind to the renamed pid's counter.

        Counter values are not preserved by equivalence (only the next-pid
        structure is), so the image binding reads them off the target
        marking.  Guards cannot inspect counters, which keeps this sound.
        """
        out = {k: (through.apply(v) if isinstance(v, Pid) else v) for k, v in b.items()}
        counters = state_of(net, mb).counters()
        for pat in t.input_arcs(gen):
            pvar, cvar = pat[0].name, pat[1].name
            p2 = out[pvar]
            if p2 not in counters:
                return None
            out[cvar] = counters[p2]
        return out

    def one_way(ma: Marking, mb: Marking, hab: PidBijection) -> bool:
        for t, b, succ_a in successors(net, ma):
            b2 = rename(t, b, hab, mb)
            if b2 is None:
                return False
            try:
                succ_b = fire(net, mb, t, b2)
            except NotEnabled:
                return False
            sets_a = pids_of(state_of(net, succ_a))
            dom_a = sets_a.pids | sets_a.nextpids
            pins = {src: dst for src, dst in hab.forward if src in dom_a}
            if state_equivalent(net, succ_a, succ_b, max_pids=max_pids, fixed=pins) is None:
                return False
        return True

    return one_way(m1, m2, h) and one_way(m2, m1, h.inverse())
