"""Thread Petri nets: markings, the arc/guard language, validation and firing.

A thread Petri net (t-net) is a coloured net with one distinguished
*generator place* holding ⟨pid, counter⟩ tokens.  The counter of a pid
says how many children it has spawned; the next child of ``p`` with
counter ``c`` is ``p.(c+1)``.  Five structural requirements pin down the
shape of generator arcs and the use of pids in guards; ``validate``
checks all of them and reports violations as data.

Tokens are tuples over pids and data values (ints and ALL-CAPS symbols,
represented as ``str``).  A marking maps each place to a multiset of
tokens; markings are immutable and canonically ordered, so equal
markings have equal byte encodings.

``enabled`` and ``fire`` implement the usual coloured-net semantics:
a transition fires under a binding when every input arc finds its
tokens, the guard holds and the produced tokens respect the place
types.  ``successors`` is the search step: it yields each enabled
binding together with its successor marking, enumerating, checking and
firing every binding once.  All three are pure and deterministic.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Union

from .pid import Pid

__all__ = [
    "Value",
    "Token",
    "Marking",
    "PlaceDecl",
    "Transition",
    "TNet",
    "Binding",
    "Var",
    "Lit",
    "Add",
    "ChildOf",
    "Cmp",
    "And",
    "BoolLit",
    "TRUE",
    "Violation",
    "GuardTypeError",
    "NotEnabled",
    "InvalidNet",
    "validate",
    "enabled",
    "successors",
    "fire",
    "value_key",
    "token_key",
    "value_str",
    "token_str",
]

Value = Union[Pid, int, str]
Token = tuple  # tuple[Value, ...]

PID_OPS = ("=", "<1", "<<", "#1", "##")
INT_OPS = ("==", "<")


def value_key(v: Value):
    """Total order on token components: data before pids, pids hierarchically."""
    if isinstance(v, bool) or v is None:
        raise TypeError(f"not a token value: {v!r}")
    if isinstance(v, int):
        return (0, v, ())
    if isinstance(v, str):
        return (1, 0, v)
    if isinstance(v, Pid):
        return (2, len(v.parts), v.parts)
    raise TypeError(f"not a token value: {v!r}")


def token_key(tok: Token):
    return tuple(value_key(v) for v in tok)


def value_str(v: Value) -> str:
    return str(v)


def token_str(tok: Token) -> str:
    return "(" + ", ".join(map(str, tok)) + ")"


class Marking:
    """Immutable map place-name -> multiset of tokens.

    The multiset of each place is stored as a token tuple sorted by
    ``token_key``, and empty places are dropped, so structurally equal
    markings are representation-equal: ``==``, ``hash`` and
    ``canonical_bytes`` all agree.
    """

    __slots__ = ("_data", "_hash")

    def __init__(self, places: Mapping[str, Iterable[Token]] | None = None):
        data = []
        if places:
            for name in sorted(places):
                toks = tuple(sorted((tuple(t) for t in places[name]), key=token_key))
                if toks:
                    data.append((name, toks))
        self._data: tuple[tuple[str, tuple[Token, ...]], ...] = tuple(data)
        self._hash = hash(self._data)

    # -- queries -------------------------------------------------------

    def places(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._data)

    def items(self) -> tuple[tuple[str, tuple[Token, ...]], ...]:
        return self._data

    def tokens(self, place: str) -> tuple[Token, ...]:
        for name, toks in self._data:
            if name == place:
                return toks
        return ()

    def all_tokens(self) -> Iterator[tuple[str, Token]]:
        for name, toks in self._data:
            for tok in toks:
                yield name, tok

    def all_pids(self) -> set[Pid]:
        return {v for _, tok in self.all_tokens() for v in tok if isinstance(v, Pid)}

    def size(self) -> int:
        return sum(len(toks) for _, toks in self._data)

    def is_empty(self) -> bool:
        return not self._data

    # -- multiset arithmetic --------------------------------------------

    def geq(self, other: "Marking") -> bool:
        """Multiset containment per place (other <= self)."""
        for name, toks in other._data:
            mine = list(self.tokens(name))
            for tok in toks:
                try:
                    mine.remove(tok)
                except ValueError:
                    return False
        return True

    def plus(self, places: Mapping[str, Iterable[Token]]) -> "Marking":
        merged: dict[str, list[Token]] = {name: list(toks) for name, toks in self._data}
        for name, toks in places.items():
            merged.setdefault(name, []).extend(tuple(t) for t in toks)
        return Marking(merged)

    def minus(self, places: Mapping[str, Iterable[Token]]) -> "Marking":
        merged: dict[str, list[Token]] = {name: list(toks) for name, toks in self._data}
        for name, toks in places.items():
            have = merged.get(name, [])
            for tok in toks:
                try:
                    have.remove(tuple(tok))
                except ValueError:
                    raise ValueError(f"token {token_str(tok)} not present in place {name}") from None
        return Marking(merged)

    def _fired(self, taken: Iterable[tuple[str, int]], produced: Iterable[tuple[str, Token]]) -> "Marking":
        """This marking minus the tokens at ``taken`` plus ``produced``.

        ``taken`` holds ``(place, index)`` pairs into this marking's places
        (equal tokens are adjacent, so taking the first copy's index once
        per copy works), ``produced`` holds ``(place, token)`` pairs.  Only
        the touched places are rebuilt, the others are shared, and
        produced tokens are inserted in ``token_key`` order, so the result
        equals the ``Marking`` built from scratch.
        """
        places = dict(self._data)
        touched: dict[str, list[Token]] = {}
        for name, i in sorted(taken, reverse=True):
            if name not in touched:
                touched[name] = list(places[name])
            del touched[name][i]
        for name, tok in produced:
            if name not in touched:
                touched[name] = list(places.get(name, ()))
            insort(touched[name], tok, key=token_key)
        places.update((name, tuple(toks)) for name, toks in touched.items())
        m = object.__new__(Marking)
        m._data = tuple(sorted(item for item in places.items() if item[1]))
        m._hash = hash(m._data)
        return m

    def without(self, place: str) -> "Marking":
        return Marking({name: toks for name, toks in self._data if name != place})

    def replace_pids(self, mapping: Mapping[Pid, Pid]) -> "Marking":
        def sub(v: Value) -> Value:
            return mapping.get(v, v) if isinstance(v, Pid) else v

        return Marking({name: [tuple(sub(v) for v in tok) for tok in toks] for name, toks in self._data})

    def canonical_bytes(self) -> bytes:
        out = []
        for name, toks in self._data:
            out.append(f"{name}|{';'.join(token_str(t) for t in toks)}")
        return "\n".join(out).encode()

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Marking) and self._data == other._data

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self._data:
            return "{}"
        parts = [f"{name}: {{{'; '.join(token_str(t) for t in toks)}}}" for name, toks in self._data]
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:
        return f"<Marking {self}>"


EMPTY_MARKING = Marking()


# -- expression and guard language ---------------------------------------


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Lit:
    value: Value

    def __str__(self) -> str:
        return value_str(self.value)


@dataclass(frozen=True)
class Add:
    """``v + k`` on integers; ``k = 0`` prints as the bare variable."""

    var: Var
    k: int

    def __str__(self) -> str:
        return f"{self.var}+{self.k}" if self.k else str(self.var)


@dataclass(frozen=True)
class ChildOf:
    """``p.(c+k)``: the k-th child counted from counter c, only on generator arcs."""

    p: Var
    c: Var
    k: int

    def __str__(self) -> str:
        return f"{self.p}.({self.c}+{self.k})"


Expr = Union[Var, Lit, Add, ChildOf]


@dataclass(frozen=True)
class BoolLit:
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class Cmp:
    op: str  # one of PID_OPS + INT_OPS
    lhs: Expr
    rhs: Expr

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


@dataclass(frozen=True)
class And:
    items: tuple  # tuple[Guard, ...]

    def __str__(self) -> str:
        return " and ".join(str(g) for g in self.items)


Guard = Union[BoolLit, Cmp, And]
TRUE = BoolLit(True)


# -- net structure ---------------------------------------------------------


@dataclass(frozen=True)
class PlaceDecl:
    name: str
    sig: tuple[str, ...]  # components, each "P" or "D"
    generator: bool = False


@dataclass(frozen=True)
class Transition:
    """Arcs are kept in declaration order; a place may appear once per direction.

    Input arcs carry pattern tuples (variables and data literals), output
    arcs carry expression tuples.  Generator arcs use the same encoding;
    their Req-3 shape is enforced by ``validate``.
    """

    name: str
    guard: Guard = TRUE
    inputs: tuple = ()   # tuple[(place, tuple[pattern-tuple, ...]), ...]
    outputs: tuple = ()  # tuple[(place, tuple[expr-tuple, ...]), ...]

    def input_arcs(self, place: str) -> tuple:
        for name, pats in self.inputs:
            if name == place:
                return pats
        return ()

    def output_arcs(self, place: str) -> tuple:
        for name, exprs in self.outputs:
            if name == place:
                return exprs
        return ()


@dataclass(frozen=True)
class TNet:
    name: str
    places: tuple  # tuple[PlaceDecl, ...]
    transitions: tuple  # tuple[Transition, ...]
    init: Marking

    def __post_init__(self):
        seen = set()
        for p in self.places:
            if p.name in seen:
                raise ValueError(f"duplicate place {p.name!r}")
            seen.add(p.name)
        tseen = set()
        for t in self.transitions:
            if t.name in tseen:
                raise ValueError(f"duplicate transition {t.name!r}")
            tseen.add(t.name)
            for attr in ("inputs", "outputs"):
                arcs = getattr(t, attr)
                pseen = set()
                for pname, _ in arcs:
                    if pname not in seen:
                        raise ValueError(f"transition {t.name!r} references unknown place {pname!r}")
                    if pname in pseen:
                        raise ValueError(f"transition {t.name!r} has two {attr} arcs for {pname!r}")
                    pseen.add(pname)

    def place(self, name: str) -> PlaceDecl:
        for p in self.places:
            if p.name == name:
                return p
        raise KeyError(name)

    @property
    def generator(self) -> PlaceDecl:
        gens = [p for p in self.places if p.generator]
        if len(gens) != 1:
            raise InvalidNet(f"net {self.name!r} has {len(gens)} generator places")
        return gens[0]

    def transition(self, name: str) -> Transition:
        for t in self.transitions:
            if t.name == name:
                return t
        raise KeyError(name)


Binding = dict  # dict[str, Value]


# -- errors ---------------------------------------------------------------


class GuardTypeError(TypeError):
    """A guard applied an operator to values of the wrong kind at runtime."""


class NotEnabled(RuntimeError):
    """fire() was called with a transition/binding pair that is not enabled."""


class InvalidNet(ValueError):
    """The net violates the t-net requirements (see .violations)."""

    def __init__(self, msg, violations=()):
        super().__init__(msg)
        self.violations = tuple(violations)


@dataclass(frozen=True)
class Violation:
    req: int  # 1..5
    where: str
    message: str

    def __str__(self) -> str:
        return f"[Req {self.req}] {self.where}: {self.message}"


# -- validation ------------------------------------------------------------


def _var_types(net: TNet, t: Transition) -> tuple[dict[str, str], list[Violation]]:
    """Infer variable kinds from input-arc positions.

    Kinds: "P" pid, "D" data, "C" spawn counter.  A variable used at
    positions of different kinds is reported against Req 4.
    """
    gen = net.generator.name
    kinds: dict[str, str] = {}
    problems: list[Violation] = []

    def note(var: str, kind: str, where: str):
        old = kinds.get(var)
        if old is None:
            kinds[var] = kind
        elif old != kind:
            problems.append(Violation(4, where, f"variable {var!r} used both as {old} and {kind}"))

    for pname, pats in t.inputs:
        sig = net.place(pname).sig
        for pat in pats:
            if len(pat) != len(sig):
                problems.append(Violation(4, f"{t.name}/{pname}", f"pattern {token_str(pat)} does not match arity {len(sig)}"))
                continue
            for comp, kind in zip(pat, sig):
                if isinstance(comp, Var):
                    if pname == gen:
                        note(comp.name, "P" if kind == "P" else "C", f"{t.name}/{pname}")
                    else:
                        note(comp.name, kind, f"{t.name}/{pname}")
    return kinds, problems


def _spawn_shape(net: TNet, t: Transition) -> tuple[dict[str, tuple[str, int, bool]], list[Violation]]:
    """Check the Req-3 shape of generator arcs.

    Returns ``{p_var: (c_var, births, survives)}`` and any violations.
    The output arc must consist of, per input pair (p, c): at most one
    survivor entry ⟨p, c+n⟩ and birth entries ⟨p.(c+j), 0⟩ for j = 1..n
    exactly, where n is the number of births of p.
    """
    gen = net.generator.name
    where = f"{t.name}/{gen}"
    problems: list[Violation] = []
    pairs: dict[str, str] = {}  # p var -> c var
    seen_vars: set[str] = set()

    for pat in t.input_arcs(gen):
        if len(pat) != 2 or not isinstance(pat[0], Var) or not isinstance(pat[1], Var):
            problems.append(Violation(3, where, f"generator input {token_str(pat)} is not a ⟨pid-var, counter-var⟩ pair"))
            continue
        pv, cv = pat[0].name, pat[1].name
        if pv in seen_vars or cv in seen_vars or pv == cv:
            problems.append(Violation(3, where, f"generator input variables must be pairwise distinct ({pv}, {cv})"))
        seen_vars.update((pv, cv))
        pairs[pv] = cv

    survivors: dict[str, int] = {}
    births: dict[str, set[int]] = {p: set() for p in pairs}
    for ex in t.output_arcs(gen):
        ex = tuple(ex)
        if len(ex) == 2 and isinstance(ex[0], Var):
            pv = ex[0].name
            adv = ex[1]
            if isinstance(adv, Var):
                adv = Add(adv, 0)
            if pv not in pairs or not isinstance(adv, Add) or adv.var.name != pairs[pv] or adv.k < 0:
                problems.append(Violation(3, where, f"bad survivor entry {token_str(ex)}"))
            elif pv in survivors:
                problems.append(Violation(3, where, f"pid variable {pv!r} listed twice as survivor"))
            else:
                survivors[pv] = adv.k
        elif len(ex) == 2 and isinstance(ex[0], ChildOf):
            ch = ex[0]
            ok = (
                ch.p.name in pairs
                and ch.c.name == pairs.get(ch.p.name)
                and ch.k >= 1
                and isinstance(ex[1], Lit)
                and ex[1].value == 0
            )
            if not ok:
                problems.append(Violation(3, where, f"bad birth entry {token_str(ex)}"))
            elif ch.k in births[ch.p.name]:
                problems.append(Violation(3, where, f"duplicate birth {ex[0]}"))
            else:
                births[ch.p.name].add(ch.k)
        else:
            problems.append(Violation(3, where, f"entry {token_str(ex)} matches no Req-3 form"))

    shape: dict[str, tuple[str, int, bool]] = {}
    for pv, cv in pairs.items():
        js = births.get(pv, set())
        n = len(js)
        if js != set(range(1, n + 1)):
            problems.append(Violation(3, where, f"births of {pv!r} are not 1..n: {sorted(js)}"))
        if pv in survivors and survivors[pv] != n:
            problems.append(
                Violation(3, where, f"counter of {pv!r} advances by {survivors[pv]} but {n} children are born")
            )
        shape[pv] = (cv, n, pv in survivors)
    return shape, problems


def _guard_atoms(g: Guard) -> Iterator[Cmp]:
    if isinstance(g, Cmp):
        yield g
    elif isinstance(g, And):
        for item in g.items:
            yield from _guard_atoms(item)


def validate(net: TNet) -> list[Violation]:
    """Check the five t-net requirements; an empty list means the net is a t-net."""
    out: list[Violation] = []

    # Req 1: a unique generator place of type P x D (pid, spawn counter).
    gens = [p for p in net.places if p.generator]
    if len(gens) != 1:
        out.append(Violation(1, net.name, f"expected exactly one generator place, found {len(gens)}"))
    for g in gens:
        if g.sig != ("P", "D"):
            out.append(Violation(1, g.name, f"generator place must have type P,D not {','.join(g.sig)}"))
    if len(gens) != 1:
        return out
    gen = gens[0].name

    # Req 2: init holds exactly ⟨⟨1⟩, 0⟩ in the generator, data elsewhere.
    if net.init.tokens(gen) != ((Pid((1,)), 0),):
        out.append(Violation(2, gen, f"initial generator marking must be {{(1, 0)}}, got {list(net.init.tokens(gen))}"))
    for pname, toks in net.init.items():
        if pname == gen:
            continue
        sig = net.place(pname).sig
        for tok in toks:
            if any(isinstance(v, Pid) for v in tok):
                out.append(Violation(2, pname, f"initial token {token_str(tok)} contains a pid"))
            elif len(tok) != len(sig) or any(kind == "P" for kind in sig):
                out.append(Violation(2, pname, f"initial token {token_str(tok)} does not respect type {','.join(sig)}"))

    for t in net.transitions:
        kinds, kind_problems = _var_types(net, t)
        out.extend(kind_problems)
        shape, shape_problems = _spawn_shape(net, t)
        out.extend(shape_problems)
        gen_pids = set(shape)
        survivors = {p for p, (_, _, alive) in shape.items() if alive}
        birth_count = {p: n for p, (_, n, _) in shape.items()}

        # Req 4: data arcs. Inputs are patterns over variables and data
        # literals; outputs may use data, input data variables, and pids
        # from the new children or the surviving generator pids. Spawn
        # counters never leak out of the generator arcs.
        for pname, pats in t.inputs:
            if pname == gen:
                continue
            sig = net.place(pname).sig
            for pat in pats:
                if len(pat) != len(sig):
                    continue  # already reported by _var_types
                for comp, kind in zip(pat, sig):
                    if isinstance(comp, Lit):
                        if isinstance(comp.value, Pid):
                            out.append(Violation(4, f"{t.name}/{pname}", "pid literals are not allowed in patterns"))
                        elif kind == "P":
                            out.append(Violation(4, f"{t.name}/{pname}", f"data literal {comp} at pid position"))
                    elif not isinstance(comp, Var):
                        out.append(Violation(4, f"{t.name}/{pname}", f"pattern component {comp} is not a variable or data literal"))

        for pname, exprs in t.outputs:
            if pname == gen:
                continue
            sig = net.place(pname).sig
            where = f"{t.name}/{pname}"
            for ex in exprs:
                if len(ex) != len(sig):
                    out.append(Violation(4, where, f"expression {token_str(ex)} does not match arity {len(sig)}"))
                    continue
                for comp, kind in zip(ex, sig):
                    if kind == "P":
                        if isinstance(comp, Var):
                            if comp.name not in survivors:
                                out.append(
                                    Violation(4, where, f"pid {comp} is not a surviving generator pid or a new child")
                                )
                        elif isinstance(comp, ChildOf):
                            if comp.p.name not in gen_pids or comp.k > birth_count.get(comp.p.name, 0):
                                out.append(Violation(4, where, f"{comp} does not name a child born by this transition"))
                        else:
                            out.append(Violation(4, where, f"{comp} cannot produce a pid"))
                    else:
                        if isinstance(comp, Var):
                            k = kinds.get(comp.name)
                            if k == "C":
                                out.append(Violation(4, where, f"spawn counter {comp} may not appear on data arcs"))
                            elif k is None:
                                out.append(Violation(4, where, f"unbound variable {comp}"))
                            elif k == "P":
                                out.append(Violation(4, where, f"pid variable {comp} at data position"))
                        elif isinstance(comp, Add):
                            k = kinds.get(comp.var.name)
                            if k != "D":
                                out.append(Violation(4, where, f"{comp} must add to a data variable"))
                        elif isinstance(comp, Lit):
                            if isinstance(comp.value, Pid):
                                out.append(Violation(4, where, "pid literals are not allowed"))
                        else:
                            out.append(Violation(4, where, f"{comp} cannot produce a data value"))

        # Req 5: guards compare pids only with the five operators and only
        # between the transition's own generator-bound pid variables.
        where = f"{t.name}/guard"
        for atom in _guard_atoms(t.guard):
            operands = (atom.lhs, atom.rhs)
            if atom.op in PID_OPS:
                for side in operands:
                    if not (isinstance(side, Var) and side.name in gen_pids):
                        out.append(Violation(5, where, f"{atom}: {side} is not a generator-bound pid variable"))
            elif atom.op in INT_OPS:
                for side in operands:
                    if isinstance(side, Var):
                        k = kinds.get(side.name)
                        if k == "C":
                            out.append(Violation(5, where, f"{atom}: spawn counters may not be inspected by guards"))
                        elif k == "P":
                            out.append(Violation(5, where, f"{atom}: pid compared with integer operator"))
                        elif k is None:
                            out.append(Violation(5, where, f"{atom}: unbound variable {side}"))
                    elif isinstance(side, Lit) and isinstance(side.value, Pid):
                        out.append(Violation(5, where, f"{atom}: pid literal in guard"))
                    elif not isinstance(side, (Var, Lit)):
                        out.append(Violation(5, where, f"{atom}: operand {side} not allowed in guards"))
            else:
                out.append(Violation(5, where, f"unknown operator {atom.op!r}"))

    return out


# -- evaluation -------------------------------------------------------------


def eval_expr(ex: Expr, b: Binding) -> Value:
    if isinstance(ex, Lit):
        return ex.value
    if isinstance(ex, Var):
        return b[ex.name]
    if isinstance(ex, Add):
        base = b[ex.var.name]
        if not isinstance(base, int) or isinstance(base, bool):
            raise GuardTypeError(f"{ex}: {ex.var} is bound to {base!r}, not an integer")
        return base + ex.k
    if isinstance(ex, ChildOf):
        p, c = b[ex.p.name], b[ex.c.name]
        if not isinstance(p, Pid) or not isinstance(c, int):
            raise GuardTypeError(f"{ex}: needs a pid and a counter, got {p!r}, {c!r}")
        return p.child(c + ex.k)
    raise TypeError(f"not an expression: {ex!r}")


def eval_guard(g: Guard, b: Binding) -> bool:
    if isinstance(g, BoolLit):
        return g.value
    if isinstance(g, And):
        return all(eval_guard(item, b) for item in g.items)
    if isinstance(g, Cmp):
        lhs, rhs = eval_expr(g.lhs, b), eval_expr(g.rhs, b)
        if g.op in PID_OPS:
            if not isinstance(lhs, Pid) or not isinstance(rhs, Pid):
                raise GuardTypeError(f"{g}: pid operator applied to {lhs!r}, {rhs!r}")
            if g.op == "=":
                return lhs == rhs
            if g.op == "<1":
                return lhs.is_parent_of(rhs)
            if g.op == "<<":
                return lhs.is_ancestor_of(rhs)
            if g.op == "#1":
                return lhs.is_prev_sibling_of(rhs)
            return lhs.is_earlier_sibling_of(rhs)
        if g.op == "==":
            if isinstance(lhs, Pid) or isinstance(rhs, Pid):
                raise GuardTypeError(f"{g}: == applied to a pid")
            return lhs == rhs
        if g.op == "<":
            if not isinstance(lhs, int) or not isinstance(rhs, int):
                raise GuardTypeError(f"{g}: < needs integers, got {lhs!r}, {rhs!r}")
            return lhs < rhs
    raise TypeError(f"not a guard: {g!r}")


def _match_pattern(pat: tuple, tok: Token, b: Binding) -> Optional[Binding]:
    """Match one pattern tuple against one token, extending the binding."""
    if len(pat) != len(tok):
        return None
    b2 = b
    for comp, v in zip(pat, tok):
        if isinstance(comp, Lit):
            if comp.value != v:
                return None
        elif isinstance(comp, Var):
            bound = b2.get(comp.name, _UNBOUND)
            if bound is _UNBOUND:
                if b2 is b:
                    b2 = dict(b)
                b2[comp.name] = v
            elif bound != v:
                return None
        else:
            return None
    return b2 if b2 is not b else dict(b)


_UNBOUND = object()


def _binding_sort_key(b: Binding):
    return tuple((name, value_key(b[name])) for name in sorted(b))


def _distinct(toks: tuple[Token, ...]) -> list[tuple[int, Token, int]]:
    """(first index, token, copies) per distinct token of a canonically sorted place."""
    out: list[tuple[int, Token, int]] = []
    for i, tok in enumerate(toks):
        if out and out[-1][1] == tok:
            first, _, n = out[-1]
            out[-1] = (first, tok, n + 1)
        else:
            out.append((i, tok, 1))
    return out


def _enum_bindings(m: Marking, t: Transition, pools: dict) -> list[tuple[Binding, tuple]]:
    """All bindings matching the input arcs, each with the tokens it takes.

    A depth-first search over token choices, one input pattern per step.
    Each step tries the distinct tokens of the pattern's place in
    canonical order, so the result is deterministic and free of repeated
    bindings.  A binding's ``taken`` holds one ``(place, index)`` per
    pattern, the index of the token's first copy in ``m.tokens(place)``.
    ``pools`` caches the distinct tokens per place across transitions.
    """
    slots = [(pname, pat) for pname, pats in t.inputs for pat in pats]
    for pname, _ in t.inputs:
        if pname not in pools:
            pools[pname] = _distinct(m.tokens(pname))

    found: list[tuple[Binding, tuple]] = []
    stack: list[tuple[int, Binding, tuple]] = [(0, {}, ())]
    while stack:
        i, b, taken = stack.pop()
        if i == len(slots):
            found.append((b, taken))
            continue
        pname, pat = slots[i]
        steps = []
        for first, tok, copies in pools[pname]:
            if copies > taken.count((pname, first)):
                b2 = _match_pattern(pat, tok, b)
                if b2 is not None:
                    steps.append((i + 1, b2, taken + ((pname, first),)))
        stack.extend(reversed(steps))
    return found


def _produced(net: TNet, t: Transition, b: Binding) -> Optional[list[tuple[str, Token]]]:
    """Evaluate all output arcs to (place, token) pairs; None when a token breaks its place type."""
    out: list[tuple[str, Token]] = []
    for pname, exprs in t.outputs:
        sig = net.place(pname).sig
        for ex in exprs:
            tok = tuple(eval_expr(comp, b) for comp in ex)
            if len(tok) != len(sig):
                return None
            for v, kind in zip(tok, sig):
                if kind == "P" and not isinstance(v, Pid):
                    return None
                if kind == "D" and isinstance(v, Pid):
                    return None
            out.append((pname, tok))
    return out


def _consumed(t: Transition, b: Binding) -> list[tuple[str, Token]]:
    return [(pname, tuple(eval_expr(c, b) for c in pat)) for pname, pats in t.inputs for pat in pats]


def _fireable(net: TNet, m: Marking, t: Transition, pools: dict) -> list[tuple[Binding, tuple, list]]:
    """(binding, taken, produced) for each binding under which t fires at m, sorted by binding."""
    out = []
    for b, taken in _enum_bindings(m, t, pools):
        if not eval_guard(t.guard, b):
            continue
        produced = _produced(net, t, b)
        if produced is not None:
            out.append((b, taken, produced))
    out.sort(key=lambda hit: _binding_sort_key(hit[0]))
    return out


def enabled(net: TNet, m: Marking) -> list[tuple[Transition, Binding]]:
    """All (transition, binding) pairs fireable at m, in deterministic order.

    Transitions come in declaration order; within a transition, bindings
    are sorted by their bound values.
    """
    pools: dict = {}
    return [(t, b) for t in net.transitions for b, _, _ in _fireable(net, m, t, pools)]


def successors(net: TNet, m: Marking) -> Iterator[tuple[Transition, Binding, Marking]]:
    """``(t, b, fire(net, m, t, b))`` for each ``(t, b)`` of ``enabled(net, m)``, in that order.

    Each binding is enumerated, guard-checked and evaluated once, and its
    successor is built from the tokens the enumeration took.
    """
    pools: dict = {}
    for t in net.transitions:
        for b, taken, produced in _fireable(net, m, t, pools):
            yield t, b, m._fired(taken, produced)


def fire(net: TNet, m: Marking, t: Transition, b: Binding) -> Marking:
    """The successor marking: m minus bound inputs plus evaluated outputs.

    Purely functional; raises NotEnabled when (t, b) cannot fire at m:
    an input variable is unbound, an input token is missing, the guard
    is false or a produced token breaks its place type.
    """
    try:
        consumed = _consumed(t, b)
    except KeyError:
        consumed = None
    produced = None
    if (
        consumed is not None
        and all(m.tokens(pname).count(tok) >= n for (pname, tok), n in Counter(consumed).items())
        and eval_guard(t.guard, b)
    ):
        produced = _produced(net, t, b)
    if produced is None:
        raise NotEnabled(f"{t.name} is not enabled under {b}")
    return m._fired([(pname, m.tokens(pname).index(tok)) for pname, tok in consumed], produced)
