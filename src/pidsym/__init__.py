"""Explicit-state reachability for thread Petri nets with pid-tree symmetry keys.

Markings of nets with dynamic process creation are mapped to canonical
pid-tree signatures; two markings get the same signature exactly when
their trees are equivalent up to process-identifier renaming, so the
visited set of the explorer is an ordinary hash table instead of a
pairwise isomorphism scan.
"""

from .pid import EMPTY, Pid, cmp_hier
from .net import (
    Binding,
    InvalidNet,
    Marking,
    PlaceDecl,
    TNet,
    Token,
    Transition,
    Violation,
    enabled,
    fire,
    successors,
    validate,
)
from .state import State, is_clean, pids_of, state_of
from .pidtree import PidTree, includes, mk_path, pids, relpath, subtrees, to_dot
from .represent import expand, is_representation, represent, retained_pids, strip, strip_marking
from .equiv import PidBijection, Signature, signature, state_key, tree_equivalent
from .oracle import TooManyPids, check_successor_correspondence, state_equivalent
from .explore import ExploreOptions, StateSpace, compare_reductions, explore
from .parser import parse_marking, parse_model, print_model
from .models import MODEL_NAMES, fanout_text, load_model, model_text

__version__ = "0.1.0"

__all__ = [
    "Pid",
    "EMPTY",
    "cmp_hier",
    "Marking",
    "Token",
    "PlaceDecl",
    "Transition",
    "TNet",
    "Binding",
    "Violation",
    "InvalidNet",
    "validate",
    "enabled",
    "successors",
    "fire",
    "State",
    "state_of",
    "pids_of",
    "is_clean",
    "PidTree",
    "mk_path",
    "includes",
    "subtrees",
    "pids",
    "relpath",
    "to_dot",
    "represent",
    "expand",
    "strip",
    "strip_marking",
    "retained_pids",
    "is_representation",
    "PidBijection",
    "Signature",
    "tree_equivalent",
    "signature",
    "state_key",
    "state_equivalent",
    "check_successor_correspondence",
    "TooManyPids",
    "ExploreOptions",
    "StateSpace",
    "explore",
    "compare_reductions",
    "parse_model",
    "parse_marking",
    "print_model",
    "MODEL_NAMES",
    "load_model",
    "model_text",
    "fanout_text",
]
