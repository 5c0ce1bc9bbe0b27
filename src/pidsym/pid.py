"""Process identifiers (pids) and their comparison algebra.

A pid is a tuple of positive integers recording spawn ancestry: the
process ``1.2.3`` is the third child of the second child of the root
process ``1``.  The empty pid ``()`` is the identity of concatenation
and never names a process.

Pids can be related in exactly five ways: equality, parent (one level
down), ancestor (any number of levels down), immediate elder sibling
(same parent, consecutive last components) and elder sibling (same
parent, smaller last component).  These are the only pid operations a
model may use; everything else in this package is built on top of them.

Pids are totally ordered *hierarchically*: first by length, then
lexicographically.  This order drives the sibling ordering of pid-trees
and must not be confused with the lexicographic order on tuples
(``3 < 1.1`` hierarchically, since length 1 < length 2).
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = [
    "Pid",
    "EMPTY",
    "length",
    "prefix",
    "subpid",
    "concat",
    "rel",
    "cmp_hier",
]


class Pid:
    """An immutable tuple of integers >= 1. Hashable; orders hierarchically."""

    __slots__ = ("parts", "_hash", "_str")

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        for a in parts:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise ValueError(f"pid components must be integers >= 1, got {parts!r}")
        self.parts: tuple[int, ...] = parts
        self._hash = hash(parts)

    @classmethod
    def parse(cls, text: str) -> "Pid":
        """Parse the textual syntax: ``1.2.3`` for ⟨1,2,3⟩, ``()`` for the empty pid."""
        text = text.strip()
        if text == "()":
            return EMPTY
        try:
            return cls(int(part) for part in text.split("."))
        except ValueError:
            raise ValueError(f"not a pid: {text!r}") from None

    # -- decomposition ------------------------------------------------

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    @property
    def prefix(self) -> "Pid":
        """All components but the last; the empty pid if length <= 1."""
        return Pid(self.parts[:-1]) if self.parts else EMPTY

    @property
    def last(self) -> int:
        if not self.parts:
            raise ValueError("the empty pid has no last component")
        return self.parts[-1]

    def subpids(self) -> frozenset["Pid"]:
        """All non-empty prefixes of this pid, itself included; empty set for ()."""
        return frozenset(Pid(self.parts[:n]) for n in range(1, len(self.parts) + 1))

    # -- construction -------------------------------------------------

    def cat(self, other: "Pid") -> "Pid":
        return Pid(self.parts + other.parts)

    def child(self, k: int) -> "Pid":
        return Pid(self.parts + (k,))

    # -- the five relations -------------------------------------------

    def is_parent_of(self, other: "Pid") -> bool:
        """self.a = other for some a (written ⊲₁ in the comparison algebra)."""
        return len(other.parts) == len(self.parts) + 1 and other.parts[: len(self.parts)] == self.parts

    def is_ancestor_of(self, other: "Pid") -> bool:
        """self is a proper prefix of other (⊲)."""
        return len(self.parts) < len(other.parts) and other.parts[: len(self.parts)] == self.parts

    def is_prev_sibling_of(self, other: "Pid") -> bool:
        """Same non-empty prefix and last components i, i+1 (⋔₁)."""
        return (
            len(self.parts) >= 2
            and len(self.parts) == len(other.parts)
            and self.parts[:-1] == other.parts[:-1]
            and other.parts[-1] == self.parts[-1] + 1
        )

    def is_earlier_sibling_of(self, other: "Pid") -> bool:
        """Same non-empty prefix and strictly smaller last component (⋔)."""
        return (
            len(self.parts) >= 2
            and len(self.parts) == len(other.parts)
            and self.parts[:-1] == other.parts[:-1]
            and self.parts[-1] < other.parts[-1]
        )

    # -- hierarchical total order --------------------------------------

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.parts), self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Pid) and self.parts == other.parts

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Pid") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Pid") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Pid") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Pid") -> bool:
        return self.sort_key() >= other.sort_key()

    def __str__(self) -> str:
        try:
            return self._str
        except AttributeError:
            self._str = ".".join(map(str, self.parts)) if self.parts else "()"
            return self._str

    def __repr__(self) -> str:
        return f"Pid.parse({str(self)!r})"


EMPTY = Pid()


# Functional spellings of the operations, matching the algebra one-to-one.

def length(p: Pid) -> int:
    return len(p)


def prefix(p: Pid) -> Pid:
    return p.prefix


def subpid(p: Pid) -> frozenset[Pid]:
    return p.subpids()


def concat(p: Pid, q: Pid) -> Pid:
    return p.cat(q)


def rel(op: str, p: Pid, q: Pid) -> bool:
    """Evaluate one of the five pid relations by name.

    ``child`` is ⊲₁ (p is the parent of q), ``ancestor`` is ⊲,
    ``sib_next`` is ⋔₁ and ``sib_elder`` is ⋔.
    """
    if op == "eq":
        return p == q
    if op == "child":
        return p.is_parent_of(q)
    if op == "ancestor":
        return p.is_ancestor_of(q)
    if op == "sib_next":
        return p.is_prev_sibling_of(q)
    if op == "sib_elder":
        return p.is_earlier_sibling_of(q)
    raise ValueError(f"unknown pid relation {op!r}")


def cmp_hier(p: Pid, q: Pid) -> int:
    """Hierarchical comparison: -1, 0 or 1 (shorter first, then lexicographic)."""
    a, b = p.sort_key(), q.sort_key()
    return (a > b) - (a < b)
