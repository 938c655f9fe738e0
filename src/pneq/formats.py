"""Line-oriented text formats for nets, relations and marking expressions.

Net files::

    net <name>
    place <id> [<id> ...]
    trans <id> : <mexpr> -> <label> -> <mexpr-or-0>
    marking <name> = <mexpr>

where ``<mexpr>`` is ``<term> ('+' <term>)*`` and ``<term>`` is
``[<k> '*'] <placeid>`` with k >= 1; ``0`` denotes the empty marking and is
allowed only in post-sets and marking definitions. ``#`` starts a comment
to end of line; the label ``tau`` is the silent one.

Relation files::

    relation <name>
    pair <lhs> <rhs>      # each side a place id, or 0 for the empty marking
"""
from __future__ import annotations

import re

from .errors import ModelError, ParseError
from .multiset import MAX_MULTIPLICITY, Marking
from .net import TAU, Lts, Net, Transition
from .relations import THETA, PlaceRelation

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*$")
_TERM = re.compile(r"(?:([0-9]+)\s*\*\s*)?([A-Za-z_][A-Za-z0-9_']*)$")
_MAX_DIGITS = len(str(MAX_MULTIPLICITY))
_ECHO = 40  # characters of the input an error message repeats


def _echo(text: str) -> str:
    """The input, clipped to a bounded length, for an error message."""
    return repr(text[:_ECHO]) + ("..." if len(text) > _ECHO else "")


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _ident(token: str, what: str, lineno: int) -> str:
    if not _IDENT.match(token):
        raise ParseError(lineno, f"invalid {what} {_echo(token)}")
    return token


def _parse_mexpr(expr: str, places, lineno: int, allow_empty: bool) -> Marking:
    expr = expr.strip()
    if not expr:
        raise ParseError(lineno, "empty marking expression")
    if expr == "0":
        if not allow_empty:
            raise ParseError(lineno, "'0' is not allowed in a pre-set")
        return Marking()
    counts: dict = {}
    for raw in expr.split("+"):
        term = raw.strip()
        m = _TERM.match(term)
        if not m:
            raise ParseError(lineno, f"bad marking term {_echo(term)}")
        digits = (m.group(1) or "1").lstrip("0")
        # int() refuses a few thousand digits or more, so the length is
        # checked first; a larger value of the same length overflows below.
        if len(digits) > _MAX_DIGITS:
            raise ParseError(
                lineno, f"multiplicity exceeds {MAX_MULTIPLICITY} in {_echo(term)}"
            )
        mult = int(digits or "0")
        if mult < 1:
            raise ParseError(lineno, f"multiplicity must be at least 1 in {_echo(term)}")
        place = m.group(2)
        if place not in places:
            raise ParseError(lineno, f"undeclared place {_echo(place)}")
        counts[place] = counts.get(place, 0) + mult
    for place, n in counts.items():
        if n > MAX_MULTIPLICITY:
            raise ModelError(f"multiplicity overflow at {place!r}")
    return Marking._trusted(counts)


def parse_net(text: str) -> Net:
    """Parse the net text format; errors carry line numbers."""
    name = None
    places: list = []
    place_set: set = set()
    transitions: list = []
    tids: set = set()
    markings: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        fields = line.split(None, 1)
        keyword = fields[0]
        rest = fields[1] if len(fields) > 1 else ""
        if keyword == "net":
            if name is not None:
                raise ParseError(lineno, "duplicate 'net' header")
            name = _ident(rest.strip(), "net name", lineno)
        elif name is None:
            raise ParseError(lineno, "expected 'net <name>' header first")
        elif keyword == "place":
            if not rest:
                raise ParseError(lineno, "expected at least one place id")
            for token in rest.split():
                _ident(token, "place id", lineno)
                if token == TAU:
                    raise ParseError(lineno, f"{TAU!r} is reserved")
                if token in place_set:
                    raise ParseError(lineno, f"duplicate place {_echo(token)}")
                place_set.add(token)
                places.append(token)
        elif keyword == "trans":
            head, sep, body = rest.partition(":")
            if not sep:
                raise ParseError(lineno, "expected ':' after transition id")
            tid = _ident(head.strip(), "transition id", lineno)
            if tid in tids:
                raise ParseError(lineno, f"duplicate transition {_echo(tid)}")
            parts = body.split("->")
            if len(parts) != 3:
                raise ParseError(
                    lineno, "expected '<mexpr> -> <label> -> <mexpr-or-0>'"
                )
            pre = _parse_mexpr(parts[0], place_set, lineno, allow_empty=False)
            label = _ident(parts[1].strip(), "label", lineno)
            post = _parse_mexpr(parts[2], place_set, lineno, allow_empty=True)
            tids.add(tid)
            transitions.append(Transition(tid, pre, label, post))
        elif keyword == "marking":
            mname, sep, expr = rest.partition("=")
            if not sep:
                raise ParseError(lineno, "expected '=' in marking definition")
            mname = _ident(mname.strip(), "marking name", lineno)
            if mname in markings:
                raise ParseError(lineno, f"duplicate marking {_echo(mname)}")
            markings[mname] = _parse_mexpr(expr, place_set, lineno, allow_empty=True)
        else:
            raise ParseError(lineno, f"unknown directive {_echo(keyword)}")
    if name is None:
        raise ParseError(1, "missing 'net <name>' header")
    return Net(name, places, transitions, markings)


def parse_marking(expr: str, net: Net) -> Marking:
    """Parse a marking expression such as 's1+2*s2' against a net."""
    try:
        return _parse_mexpr(expr, net.place_index, 1, allow_empty=True)
    except ParseError as exc:
        raise ModelError(f"bad marking expression {_echo(expr)}: {exc}") from None


def parse_relation(text: str, net: Net) -> PlaceRelation:
    """Parse the relation text format against a net's places."""
    name = None
    pairs: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        fields = line.split()
        if fields[0] == "relation":
            if name is not None:
                raise ParseError(lineno, "duplicate 'relation' header")
            if len(fields) != 2:
                raise ParseError(lineno, "expected 'relation <name>'")
            name = _ident(fields[1], "relation name", lineno)
        elif name is None:
            raise ParseError(lineno, "expected 'relation <name>' header first")
        elif fields[0] == "pair":
            if len(fields) != 3:
                raise ParseError(lineno, "expected 'pair <lhs> <rhs>'")
            sides = []
            for token in fields[1:]:
                if token == "0":
                    sides.append(THETA)
                else:
                    _ident(token, "place id", lineno)
                    if token not in net.place_index:
                        raise ParseError(lineno, f"undeclared place {_echo(token)}")
                    sides.append(token)
            if sides[0] is THETA and sides[1] is THETA:
                raise ParseError(lineno, "'pair 0 0' is not allowed")
            pairs.add((sides[0], sides[1]))
        else:
            raise ParseError(lineno, f"unknown directive {_echo(fields[0])}")
    if name is None:
        raise ParseError(1, "missing 'relation <name>' header")
    return PlaceRelation.of(pairs, name)


def lts_to_dot(lts: Lts, net: Net) -> str:
    """Render a reachability graph in DOT; silent edges are dashed."""
    lines = ["digraph lts {", "  rankdir=LR;"]
    for i, m in enumerate(lts.states):
        shape = "doublecircle" if i in lts.initials else "circle"
        label = net.format_marking(m)
        lines.append(f'  n{i} [shape={shape} label="{label}"];')
    for src, label, dst in lts.edges:
        style = " style=dashed" if label == TAU else ""
        lines.append(f'  n{src} -> n{dst} [label="{label}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
