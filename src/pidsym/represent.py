"""Building pid-tree representations of markings and their canonical forms.

Both canonical forms come from one builder over a set of *kept* pids:
each kept pid hangs under its longest kept proper prefix, reached over
the remaining suffix as its fragment, and every token sits at its owner
(the pid in its first component, or the root for shared tokens).
Generator tokens are not stored; they only contribute pids.

* The *expanded* form (``represent``) keeps the prefix closure of the
  pids and next pids, so every edge carries a length-1 fragment.  It is
  the unique maximal representation.
* The *stripped* form (``strip_marking``) keeps just the active and next
  pids, so fragments span the dropped nodes.  It is the unique minimal
  representation.

``strip`` and ``expand`` convert a given tree between the two.  Both
forms are deterministic and idempotent, and for clean markings they
coincide.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .net import Marking, TNet, Token
from .pid import EMPTY, Pid
from .pidtree import PidTree, check_wf, is_sibling_ordered, pids, subtrees
from .state import pids_of, state_of

__all__ = [
    "represent",
    "expand",
    "strip",
    "strip_marking",
    "retained_pids",
    "is_representation",
    "RetainedNotCovered",
]

EMPTY_MARKING = Marking()


class RetainedNotCovered(ValueError):
    """strip() was asked to retain pids that the tree does not contain."""


def _build(markings: Mapping[Pid, Marking], kept: set[Pid]) -> PidTree:
    """The tree over the kept pids (``()`` among them), node p marked by markings[p].

    Each kept pid hangs under its longest kept proper prefix, over the
    rest of the pid as fragment.  Nodes are built deepest first, so the
    children of a node all exist by the time it is built.
    """
    kids: dict[Pid, list[tuple[Pid, PidTree]]] = {}
    for p in sorted(kept, key=len, reverse=True):
        node = PidTree(markings.get(p, EMPTY_MARKING), kids.pop(p, ()))
        if p:
            q = p.prefix
            while q not in kept:
                q = q.prefix
            kids.setdefault(q, []).append((Pid(p.parts[len(q):]), node))
    return node


def _closure(seeds: Iterable[Pid]) -> set[Pid]:
    """``()`` and every prefix of the seeds, each walked up only to a pid already in."""
    kept = {EMPTY}
    for p in seeds:
        while p not in kept:
            kept.add(p)
            p = p.prefix
    return kept


def _owned(net: TNet, m: Marking) -> dict[Pid, Marking]:
    """The non-generator tokens of m grouped by owner."""
    gen = net.generator.name
    groups: dict[Pid, dict[str, list[Token]]] = {}
    for place, tok in m.all_tokens():
        if place != gen:
            owner = tok[0] if isinstance(tok[0], Pid) else EMPTY
            groups.setdefault(owner, {}).setdefault(place, []).append(tok)
    return {p: Marking(g) for p, g in groups.items()}


def represent(net: TNet, m: Marking) -> PidTree:
    """The expanded-form representation of a marking (sibling ordered)."""
    # The retained pids are the pids and next pids; their prefixes fill the paths.
    return _build(_owned(net, m), _closure(retained_pids(net, m)))


def strip_marking(net: TNet, m: Marking) -> PidTree:
    """The stripped-form representation of a marking."""
    return _build(_owned(net, m), {EMPTY} | retained_pids(net, m))


def expand(t: PidTree) -> PidTree:
    """Split every fragment into length-1 edges; a fixpoint on expanded trees."""
    markings = {loc: node.marking for loc, node in subtrees(t)}
    return _build(markings, _closure(markings))


def retained_pids(net: TNet, m: Marking) -> frozenset[Pid]:
    """What stripping keeps: the active pids and the next pids of m."""
    sets = pids_of(state_of(net, m))
    return frozenset(sets.active | sets.nextpids)


def strip(t: PidTree, retained: frozenset[Pid] | set[Pid]) -> PidTree:
    """The tree on exactly the retained pids, fragments joined across dropped nodes.

    Dropped nodes must carry no tokens (they are pure path scaffolding in
    any representation, since owners are active).
    """
    markings = {loc: node.marking for loc, node in subtrees(t)}
    missing = set(retained) - markings.keys()
    if missing:
        raise RetainedNotCovered(f"pids not in tree: {sorted(missing, key=lambda p: p.sort_key())}")

    kept = {EMPTY} | set(retained)
    for loc, marking in markings.items():
        if loc not in kept and not marking.is_empty():
            raise ValueError(f"cannot strip node {loc}: it carries tokens")
    return _build(markings, kept)


def is_representation(net: TNet, t: PidTree, m: Marking) -> bool:
    """Does t represent m?  Checks the token rules, reconstruction and pid bounds."""
    if not check_wf(t) or not is_sibling_ordered(t):
        return False

    gen = net.generator.name
    sets = pids_of(state_of(net, m))
    tree_pids = pids(t) - {EMPTY}

    # Bounds: every pid and next pid appears; nothing beyond the subpid
    # closure plus the next pids ever does.
    if not (sets.pids | sets.nextpids) <= tree_pids:
        return False
    if not tree_pids <= _closure(sets.pids) | sets.nextpids:
        return False

    # Tokens sit exactly where the rules put them: shared at the root,
    # owned at the owner, generator tokens nowhere; and per place the
    # node markings reassemble the marking (the reconstruction identity).
    leftovers: dict[str, list[Token]] = {place: list(toks) for place, toks in m.items() if place != gen}
    for loc, node in subtrees(t):
        for place, toks in node.marking.items():
            if place == gen:
                return False
            for tok in toks:
                owner = tok[0] if isinstance(tok[0], Pid) else EMPTY
                if owner != loc:
                    return False
                try:
                    leftovers.get(place, []).remove(tok)
                except ValueError:
                    return False
    return not any(leftovers.values())
