"""Pid-trees: markings arranged by token ownership.

A pid-tree node carries a marking and an ordered sequence of children,
each reached over a non-empty pid *fragment*.  Concatenating the
fragments along a branch gives the pid that owns the tokens at the
reached node; the root (pid ``()``) holds the shared tokens.  Fragments
of one node are mutually prefix-free, so every pid occurs at most once
in a tree and decompositions are unambiguous.

Trees built through the regular constructor are always *sibling
ordered*: children sorted by the hierarchical order of their fragments.
``PidTree.raw`` skips both the ordering and the well-formedness checks
so that tests can express illegal trees.
"""

from __future__ import annotations

from typing import Callable

from .net import Marking, token_str
from .pid import EMPTY, Pid

__all__ = [
    "PidTree",
    "EmptyPid",
    "NotInTree",
    "check_wf",
    "is_sibling_ordered",
    "includes",
    "subtrees",
    "pids",
    "mk_path",
    "relpath",
    "relpath_map",
    "order_by",
    "sibling_label",
    "to_dot",
]

EMPTY_MARKING = Marking()


class EmptyPid(ValueError):
    """A path labelled by the empty pid was requested."""


class NotInTree(KeyError):
    """relpath() was asked for a pid that labels no node of the tree."""


class PidTree:
    """Immutable node: a marking plus (fragment, subtree) children."""

    __slots__ = ("marking", "children", "_hash")

    def __init__(self, marking: Marking | None = None, children=()):
        marking = marking if marking is not None else EMPTY_MARKING
        kids = tuple((frag, sub) for frag, sub in children)
        for frag, sub in kids:
            if not isinstance(frag, Pid) or frag == EMPTY:
                raise ValueError(f"child fragment must be a non-empty pid, got {frag!r}")
            if not isinstance(sub, PidTree):
                raise ValueError(f"child {frag} is not a PidTree")
        clash = _overlap([frag for frag, _ in kids])
        if clash:
            raise ValueError(f"fragments {clash[0]} and {clash[1]} overlap")
        kids = tuple(sorted(kids, key=lambda fs: fs[0].sort_key()))
        self.marking = marking
        self.children = kids
        self._hash = hash((marking, kids))

    @classmethod
    def raw(cls, marking: Marking | None = None, children=()) -> "PidTree":
        """Build without validation or sorting (for tests of illegal trees)."""
        t = object.__new__(cls)
        t.marking = marking if marking is not None else EMPTY_MARKING
        t.children = tuple(children)
        t._hash = hash((t.marking, t.children))
        return t

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PidTree) and self.marking == other.marking and self.children == other.children

    def __hash__(self) -> int:
        return self._hash

    def arity(self) -> int:
        return len(self.children)

    def child(self, frag: Pid) -> "PidTree":
        for f, sub in self.children:
            if f == frag:
                return sub
        raise KeyError(frag)

    def node_count(self) -> int:
        return 1 + sum(sub.node_count() for _, sub in self.children)

    def __str__(self) -> str:
        if not self.children:
            return str(self.marking)
        kids = ", ".join(f"{frag}->{sub}" for frag, sub in self.children)
        return f"{self.marking}[{kids}]"

    def __repr__(self) -> str:
        return f"<PidTree {self}>"


def _overlap(frags: list[Pid]) -> tuple[Pid, Pid] | None:
    """Two fragments of which one is a prefix of (or equal to) the other, if any.

    Sorted lexicographically, a pid comes directly before the pids that
    extend it, so only adjacent pairs need testing.
    """
    frags = sorted(frags, key=lambda f: f.parts)
    for a, b in zip(frags, frags[1:]):
        if b.parts[: len(a.parts)] == a.parts:
            return a, b
    return None


def check_wf(t: PidTree) -> bool:
    """The two fragment conditions, recursively: non-empty and prefix-free."""
    frags = [frag for frag, _ in t.children]
    if any(not isinstance(frag, Pid) or frag == EMPTY for frag in frags) or _overlap(frags):
        return False
    return all(check_wf(sub) for _, sub in t.children)


def is_sibling_ordered(t: PidTree) -> bool:
    frags = [frag for frag, _ in t.children]
    if any(frags[i].sort_key() > frags[i + 1].sort_key() for i in range(len(frags) - 1)):
        return False
    return all(is_sibling_ordered(sub) for _, sub in t.children)


def includes(sub: PidTree, sup: PidTree) -> bool:
    """Root-preserving inclusion: markings contained place-wise, children matched by fragment."""
    if not sup.marking.geq(sub.marking):
        return False
    for frag, s in sub.children:
        for frag2, s2 in sup.children:
            if frag == frag2:
                if includes(s, s2):
                    break
                return False
        else:
            return False
    return True


def subtrees(t: PidTree) -> list[tuple[Pid, PidTree]]:
    """All (location, subtree) pairs, the tree itself located at ()."""
    out: list[tuple[Pid, PidTree]] = []
    stack = [(EMPTY, t)]
    while stack:
        loc, node = stack.pop()
        out.append((loc, node))
        stack.extend((loc.cat(frag), sub) for frag, sub in reversed(node.children))
    return out


def pids(t: PidTree) -> set[Pid]:
    return {loc for loc, _ in subtrees(t)}


def node_at(t: PidTree, loc: Pid) -> PidTree:
    for where, node in subtrees(t):
        if where == loc:
            return node
    raise NotInTree(loc)


def mk_path(pi: Pid, marking: Marking | None = None, granularity: str = "expanded") -> PidTree:
    """A linear tree whose only tokens sit at pi.

    ``expanded`` uses length-1 fragments all the way down; ``single-edge``
    uses one fragment equal to pi.
    """
    if pi == EMPTY:
        raise EmptyPid("paths must be labelled by a non-empty pid")
    marking = marking if marking is not None else EMPTY_MARKING
    if granularity == "single-edge":
        return PidTree(EMPTY_MARKING, [(pi, PidTree(marking))])
    if granularity != "expanded":
        raise ValueError(f"unknown granularity {granularity!r}")
    node = PidTree(marking)
    for a in reversed(pi.parts):
        node = PidTree(EMPTY_MARKING, [(Pid((a,)), node)])
    return node


def relpath(pi: Pid, t: PidTree) -> tuple[int, ...]:
    """1-based child indices along the unique fragment decomposition of pi."""
    if pi == EMPTY:
        raise NotInTree("the empty pid has no relative path")
    for i, (frag, sub) in enumerate(t.children, start=1):
        if frag == pi:
            return (i,)
        if frag.is_ancestor_of(pi):
            rest = Pid(pi.parts[len(frag.parts):])
            return (i,) + relpath(rest, sub)
    raise NotInTree(pi)


def relpath_map(t: PidTree) -> dict[Pid, tuple[int, ...]]:
    """Relative paths of every non-empty pid in the tree, in one walk."""
    out: dict[Pid, tuple[int, ...]] = {}
    stack = [(EMPTY, (), t)]
    while stack:
        loc, path, node = stack.pop()
        if loc != EMPTY:
            out[loc] = path
        kids = [(loc.cat(frag), path + (i,), sub) for i, (frag, sub) in enumerate(node.children, start=1)]
        stack.extend(reversed(kids))
    return out


def sibling_label(frag: Pid, sub: PidTree):
    """The labelling that realizes sibling ordering: the fragment itself."""
    return frag.sort_key()


def order_by(t: PidTree, label: Callable[[Pid, PidTree], object]) -> PidTree:
    """Sort children at every node, stably, by the given labelling."""
    kids = tuple((frag, order_by(sub, label)) for frag, sub in t.children)
    kids = tuple(sorted(kids, key=lambda fs: label(fs[0], fs[1])))
    return PidTree.raw(t.marking, kids)


def to_dot(t: PidTree, graph_name: str = "pidtree") -> str:
    """Graphviz rendering: nodes labelled by markings, edges by fragments."""

    def marking_label(m: Marking) -> str:
        if m.is_empty():
            return "{}"
        lines = [f"{place}: {', '.join(token_str(tok) for tok in toks)}" for place, toks in m.items()]
        return "\\n".join(lines)

    lines = [f"digraph {graph_name} {{", "  node [shape=circle, fontsize=10];"]
    counter = 0

    def walk(node: PidTree) -> int:
        nonlocal counter
        me = counter
        counter += 1
        label = marking_label(node.marking).replace('"', "'")
        lines.append(f'  n{me} [label="{label}"];')
        for frag, sub in node.children:
            kid = walk(sub)
            lines.append(f'  n{me} -> n{kid} [label="{frag}"];')
        return me

    walk(t)
    lines.append("}")
    return "\n".join(lines)
