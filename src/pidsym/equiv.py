"""Equivalence of sibling-ordered pid-trees, two interchangeable ways.

``tree_equivalent`` is the direct checker.  Two sibling-ordered trees
are equivalent when the relative-path matching between their pids is a
bijection (same shapes) and, node by node:

* markings coincide after renaming pids through the bijection,
* corresponding fragments agree on their length class (= 1 or > 1),
* adjacent sibling fragments sharing a prefix on one side share it on
  the other, with the same offset class of last components (= 1 or > 1).

Length and offset are compared as classes, not values, because any
number of dead intermediate pids may sit between a node and its parent
(or between two siblings) without affecting the ancestor and
elder-sibling relations.

``signature`` turns one tree into a canonical byte string whose equality
coincides with the checker: markings are serialized with every pid
replaced by its relative path (then re-sorted, so the encoding is
renaming-invariant), and each child contributes only its length class,
its shared-prefix flag, and the offset class when the flag is set.
Signatures are the visited-set keys of the exploration engine: one hash
lookup instead of an isomorphism check per visited state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .net import Marking, TNet, Token
from .pid import EMPTY, Pid
from .pidtree import PidTree, is_sibling_ordered, relpath_map
from .represent import represent, strip_marking

__all__ = [
    "PidBijection",
    "Signature",
    "tree_equivalent",
    "signature",
    "state_key",
    "NotSiblingOrdered",
    "UnanchoredPid",
]


class NotSiblingOrdered(ValueError):
    """An input tree is not sorted by the sibling ordering."""


class UnanchoredPid(KeyError):
    """A token references a pid that labels no node of the tree."""


@dataclass(frozen=True)
class PidBijection:
    """A bijection between two pid sets, with its inverse precomputed."""

    forward: tuple  # tuple[(Pid, Pid), ...] sorted by source

    @classmethod
    def of(cls, mapping: Mapping[Pid, Pid]) -> "PidBijection":
        items = tuple(sorted(mapping.items(), key=lambda kv: kv[0].sort_key()))
        values = {v for _, v in items}
        if len(values) != len(items):
            raise ValueError("mapping is not injective")
        return cls(items)

    def as_dict(self) -> dict[Pid, Pid]:
        return dict(self.forward)

    def apply(self, p: Pid) -> Pid:
        for src, dst in self.forward:
            if src == p:
                return dst
        raise KeyError(p)

    def __getitem__(self, p: Pid) -> Pid:
        return self.apply(p)

    def __contains__(self, p: Pid) -> bool:
        return any(src == p for src, _ in self.forward)

    def inverse(self) -> "PidBijection":
        return PidBijection.of({dst: src for src, dst in self.forward})

    def compose(self, then: "PidBijection") -> "PidBijection":
        """First self, then the other bijection."""
        return PidBijection.of({src: then.apply(dst) for src, dst in self.forward})

    def __len__(self) -> int:
        return len(self.forward)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{s}->{d}" for s, d in self.forward) + "}"


@dataclass(frozen=True)
class Signature:
    """Canonical bytes of a sibling-ordered pid-tree; equal iff trees are equivalent."""

    data: bytes

    def hex(self) -> str:
        return self.data.hex()

    def __str__(self) -> str:
        return self.hex()


def _pairs(t1: PidTree, t2: PidTree) -> Optional[list[tuple[Pid, Pid, PidTree, PidTree]]]:
    """Lockstep walk; None when the shapes differ.

    In sibling-ordered trees the relative-path matching pairs the i-th
    child with the i-th child, so walking positionally builds exactly the
    Def-16 bijection.
    """
    out: list[tuple[Pid, Pid, PidTree, PidTree]] = []
    stack = [(EMPTY, EMPTY, t1, t2)]
    while stack:
        loc1, loc2, n1, n2 = stack.pop()
        out.append((loc1, loc2, n1, n2))
        if n1.arity() != n2.arity():
            return None
        pairs = zip(reversed(n1.children), reversed(n2.children))
        stack.extend((loc1.cat(f1), loc2.cat(f2), s1, s2) for (f1, s1), (f2, s2) in pairs)
    return out


def _sibling_classes(node: PidTree) -> list[tuple[int, bool, int]]:
    """Per child: (length class, shares-prefix-with-previous, offset class).

    Classes collapse to 1 or 2 ("one" / "many"); the offset class is 0
    when the prefix flag is off.
    """
    out = []
    prev: Optional[Pid] = None
    for frag, _ in node.children:
        length_class = 1 if len(frag) == 1 else 2
        same = prev is not None and prev.prefix == frag.prefix
        offset_class = 0
        if same:
            off = frag.last - prev.last
            offset_class = 1 if off == 1 else 2
        out.append((length_class, same, offset_class))
        prev = frag
    return out


def tree_equivalent(t1: PidTree, t2: PidTree) -> Optional[PidBijection]:
    """The Def-16 checker; returns the pid bijection (without ()) or None."""
    for t in (t1, t2):
        if not is_sibling_ordered(t):
            raise NotSiblingOrdered(f"tree is not sibling ordered: {t}")

    pairs = _pairs(t1, t2)
    if pairs is None:
        return None

    h = {loc1: loc2 for loc1, loc2, _, _ in pairs if loc1 != EMPTY}

    def rename(tok: Token) -> Token:
        renamed = []
        for v in tok:
            if isinstance(v, Pid):
                if v not in h:
                    raise UnanchoredPid(f"token pid {v} labels no node of the tree")
                renamed.append(h[v])
            else:
                renamed.append(v)
        return tuple(renamed)

    for _, _, n1, n2 in pairs:
        if _sibling_classes(n1) != _sibling_classes(n2):
            return None
        renamed = Marking({place: [rename(tok) for tok in toks] for place, toks in n1.marking.items()})
        if renamed != n2.marking:
            return None
    return PidBijection.of(h)


# -- canonical byte encoding -------------------------------------------------


def _frame(chunks: list[bytes]) -> bytes:
    return b"".join(len(c).to_bytes(4, "big") + c for c in chunks)


def _encode_value(v, rp: dict[Pid, tuple[int, ...]]) -> bytes:
    if isinstance(v, Pid):
        try:
            path = rp[v]
        except KeyError:
            raise UnanchoredPid(f"token pid {v} labels no node of the tree") from None
        return b"r" + b"".join(i.to_bytes(4, "big") for i in path)
    if isinstance(v, int):
        return b"i" + str(v).encode()
    return b"s" + str(v).encode()


def _encode_marking(m: Marking, rp: dict[Pid, tuple[int, ...]]) -> bytes:
    chunks = []
    for place, toks in m.items():
        abstracted = sorted(_frame([_encode_value(v, rp) for v in tok]) for tok in toks)
        chunks.append(_frame([place.encode()] + abstracted))
    return _frame(chunks)


def _encode_node(node: PidTree, rp: dict[Pid, tuple[int, ...]]) -> bytes:
    chunks = [_encode_marking(node.marking, rp)]
    for (frag, sub), (length_class, same, offset_class) in zip(node.children, _sibling_classes(node)):
        chunks.append(bytes((length_class, 1 if same else 0, offset_class)))
        chunks.append(_encode_node(sub, rp))
    return _frame(chunks)


def signature(t: PidTree) -> Signature:
    """Canonical bytes of a sibling-ordered tree, stable across runs."""
    if not is_sibling_ordered(t):
        raise NotSiblingOrdered(f"tree is not sibling ordered: {t}")
    return Signature(_encode_node(t, relpath_map(t)))


def state_key(net: TNet, m: Marking, mode: str = "stripped") -> Signature:
    """The visited-set key of a marking under the chosen canonical form."""
    if mode == "stripped":
        return signature(strip_marking(net, m))
    if mode == "expanded":
        return signature(represent(net, m))
    raise ValueError(f"unknown canonisation mode {mode!r}")
