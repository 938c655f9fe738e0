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
from .ltsbisim import decide_interleaving
from .multiset import Marking
from .net import TAU, Lts, Net, Transition, enabled, fire, reach_lts
from .relations import (
    THETA,
    MatchWitness,
    PlaceRelation,
    additive_member,
    d_additive_member,
    related_markings,
)
from .silent import is_tau_sequential

__version__ = "0.1.0"

__all__ = [
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
    "StateSpaceLimitError",
    "TAU",
    "THETA",
    "Transition",
    "Verdict",
    "Violation",
    "additive_member",
    "check_relation",
    "d_additive_member",
    "decide",
    "decide_interleaving",
    "enabled",
    "fire",
    "is_tau_sequential",
    "lts_to_dot",
    "pair_universe",
    "parse_marking",
    "parse_net",
    "parse_relation",
    "reach_lts",
    "related_markings",
    "verify",
]
