"""Independent replay of silent responses, used to cross-check the searches.

A response is a tuple of per-token blocks of SilentSteps, as
`silent_reference.run_search` builds them: a single idling step, or a
chain of tau-sequential moves of one token that visits no place twice (it
may end where it started). `replay` re-fires a response from its start
marking without the search machinery and returns the traversed markings,
one before each step plus the final one, each as its sorted token tuple:
the trace both searches return for the response.
A malformed response raises ModelError.

`silent_witnesses` reads the traces a relation check accepts off the
checking engine's response cache, for the suites that check what those
traces pass through.
"""
from pneq import (
    TAU,
    DecideCaps,
    Marking,
    ModelError,
    Transition,
    additive_member,
    is_tau_sequential,
)
from pneq.checkers import _Engine


def idle(place: str) -> Transition:
    """The fictitious idling transition on a place (never stored in a net)."""
    m = Marking([place])
    return Transition(f"i({place})", m, TAU, m)


def replay(net, start: Marking, blocks) -> tuple:
    if len(blocks) != start.size:
        raise ModelError(
            f"malformed response: {len(blocks)} blocks for {start.size} tokens"
        )
    tokens = list(start.tokens())
    trace = [start.tokens()]
    for block in blocks:
        if not block:
            raise ModelError("malformed response: empty block")
        if block[0].kind == "idle":
            if len(block) > 1:
                raise ModelError("malformed response: idling inside a longer block")
            if block[0].ref not in tokens:
                raise ModelError(
                    f"malformed response: no token on {block[0].ref!r} to idle"
                )
            trace.append(tuple(sorted(tokens)))
            continue
        first = cur = None
        positions = []
        for step in block:
            t = net.transition_index.get(step.ref) if step.kind == "move" else None
            if t is None or not is_tau_sequential(net, t):
                raise ModelError(
                    f"malformed response: step {step.ref!r} is not tau-sequential"
                )
            src, dst = next(iter(t.pre)), next(iter(t.post))
            if cur is None:
                if src not in tokens:
                    raise ModelError(f"malformed response: no token on {src!r} to move")
                first = src
            elif src != cur:
                raise ModelError("malformed response: block does not chain")
            tokens.remove(src)
            tokens.append(dst)
            trace.append(tuple(sorted(tokens)))
            positions.append(dst)
            cur = dst
        if len(set(positions)) != len(positions) or first in positions[:-1]:
            raise ModelError("malformed response: block revisits a place")
    return tuple(trace)


def steps_stay_related(rel, anchor: Marking, trace, direction: str) -> bool:
    """Every marking a response steps from (all but the last token tuple of
    its trace) is closure-related to the anchor: as (anchor, m) for 'psi',
    as (m, anchor) for 'phi'."""
    for tokens in trace[:-1]:
        m = Marking(tokens)
        pair = (anchor, m) if direction == "psi" else (m, anchor)
        if additive_member(rel, *pair) is None:
            return False
    return True


def silent_witnesses(net, rel, kind) -> list:
    """The (anchor, direction, trace) of each response `check_relation`
    finds for `rel` under `kind`, in its walk's order: for each side, each
    transition and each image of its pre-set, the pre-set as a Marking,
    'psi' (side 1) or 'phi' (side 2), and the response's trace as Markings.
    Conditions without a response are skipped."""
    engine = _Engine(net, rel.sorted_pairs(), kind, DecideCaps().node_budget)
    full = engine.universe_mask
    bar = full & engine.core_mask
    out = []
    for side, direction in ((1, "psi"), (2, "phi")):
        for ti, items in enumerate(engine.compiled.pre_items):
            anchor = Marking(engine.compiled.pre_tok[ti])
            for m in engine.images(items, bar, side):
                trace = engine.respond(ti, m, side, full)
                if trace is not None:
                    out.append((anchor, direction, tuple(map(Marking, trace))))
    return out
