"""Place-based behavioral equivalences for P/T nets with silent moves."""

from .checkers import (
    KINDS,
    CheckReport,
    DecideCaps,
    Verdict,
    Violation,
    check_relation,
    decide,
    pair_universe,
    verify,
)
from .errors import (
    ModelError,
    NotEnabledError,
    ParseError,
    PneqError,
    SearchBudgetError,
    StateSpaceLimitError,
)
from .formats import lts_to_dot, parse_marking, parse_net, parse_relation
from .ltsbisim import branching_bisim, decide_interleaving, strong_bisim
from .multiset import EMPTY_MARKING, Marking, ms_diff, ms_scalar, ms_union
from .net import TAU, Lts, Net, Transition, enabled, fire, is_safe, reach_lts
from .relations import (
    THETA,
    MatchWitness,
    PlaceRelation,
    additive_member,
    compose,
    d_additive_member,
    identity,
    inverse,
    related_markings,
    restrict_bar,
)
from .silent import SilentStep, is_tau_sequential, silent_graph

__version__ = "0.1.0"

__all__ = [
    "EMPTY_MARKING",
    "KINDS",
    "CheckReport",
    "DecideCaps",
    "Lts",
    "Marking",
    "MatchWitness",
    "ModelError",
    "Net",
    "NotEnabledError",
    "ParseError",
    "PlaceRelation",
    "PneqError",
    "SearchBudgetError",
    "SilentStep",
    "StateSpaceLimitError",
    "TAU",
    "THETA",
    "Transition",
    "Verdict",
    "Violation",
    "additive_member",
    "branching_bisim",
    "check_relation",
    "compose",
    "d_additive_member",
    "decide",
    "decide_interleaving",
    "enabled",
    "fire",
    "identity",
    "inverse",
    "is_safe",
    "is_tau_sequential",
    "lts_to_dot",
    "ms_diff",
    "ms_scalar",
    "ms_union",
    "pair_universe",
    "parse_marking",
    "parse_net",
    "parse_relation",
    "reach_lts",
    "related_markings",
    "restrict_bar",
    "silent_graph",
    "strong_bisim",
    "verify",
]
