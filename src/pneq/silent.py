"""Silent-move machinery: idling steps and constrained silent responses.

Only silent transitions with singleton pre- and post-set can be abstracted
in the branching games. A response moves each token in its own block,
either a single idling step or an acyclic walk of such transitions over
that token; every marking it steps from must stay closure-related to the
anchor marking (the matched transition's pre-set). The blocks shape the
search's states; a response is read only through the markings it passes,
so the search returns those, its trace.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from typing import Callable

from .errors import SearchBudgetError
from .net import Net, Transition, _tau_sequential

DEFAULT_NODE_BUDGET = 1_000_000


def is_tau_sequential(net: Net, t: Transition) -> bool:
    """Silent with exactly one input token and one output token."""
    net.check_transition(t)
    return _tau_sequential(t)


def silent_reachable(adj: Mapping, places) -> frozenset:
    """Places reachable from the given ones through the silent graph."""
    seen = set(places)
    stack = list(places)
    while stack:
        p = stack.pop()
        for q, _tid in adj.get(p, ()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# the block search
# ---------------------------------------------------------------------------


def run_search(
    adj: Mapping,
    start_tokens: tuple,
    psi_ok: Callable[[tuple], bool],
    goal: Callable[[tuple], bool],
    node_budget: int,
    limit: int = 1,
) -> list:
    """The first `limit` silent responses from `start_tokens`, breadth first.

    States are (pending tokens, active block, finished tokens); every step
    fires from a marking that must satisfy `psi_ok`, the final marking is
    exempt. A response succeeds when all tokens are finished and `goal`
    accepts the finished tokens.

    A response is its trace: the sorted token tuples of the markings it
    passes, one before each step plus the final one. A step idles or moves
    a token; closing a block is no step. The list is empty when no acyclic
    response exists. The per-block acyclicity bound caps every block at one
    visit per place, so absence of a hit is conclusive. Raises
    SearchBudgetError past the node budget: an aborted search never reports
    absence.
    """
    start = (tuple(sorted(start_tokens)), None, ())
    parents: dict = {start: None}  # state -> (parent, whether a step reached it)
    queue = deque([start])
    psi_cache: dict = {}
    found = []
    nodes = 0

    def psi(mk):
        if mk not in psi_cache:
            psi_cache[mk] = psi_ok(mk)
        return psi_cache[mk]

    while queue:
        state = queue.popleft()
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetError(
                f"silent response search exceeded {node_budget} nodes", nodes
            )
        pending, active, done = state
        if active is None and not pending:
            if goal(done):
                found.append(_trace(parents, state))
                if len(found) == limit:
                    break
            continue
        # (whether a step idles or moves a token, next state); closing a
        # block is no step
        successors = []
        can_step = psi(_tokens(state))
        if active is not None:
            p0, cur, visited = active
            successors.append((False, (pending, None, tuple(sorted(done + (cur,))))))
            if can_step:
                for nxt, _tid in adj.get(cur, ()):
                    if nxt in visited:  # cur itself is always in visited
                        continue
                    if nxt == p0:
                        # returning to the block's start closes it
                        nstate = (pending, None, tuple(sorted(done + (nxt,))))
                    else:
                        nstate = (pending, (p0, nxt, visited | {nxt}), done)
                    successors.append((True, nstate))
        elif can_step:
            for p in sorted(set(pending)):
                rest = list(pending)
                rest.remove(p)
                rest = tuple(rest)
                successors.append((True, (rest, None, tuple(sorted(done + (p,))))))
                for nxt, _tid in adj.get(p, ()):
                    if nxt == p:
                        nstate = (rest, None, tuple(sorted(done + (p,))))
                    else:
                        nstate = (rest, (p, nxt, frozenset((nxt,))), done)
                    successors.append((True, nstate))
        for stepped, nstate in successors:
            if nstate not in parents:
                parents[nstate] = (state, stepped)
                queue.append(nstate)
    return found


def _tokens(state) -> tuple:
    """The sorted tokens of a search state's marking."""
    pending, active, done = state
    toks = list(pending) + list(done)
    if active is not None:
        toks.append(active[1])
    return tuple(sorted(toks))


def _trace(parents, state) -> tuple:
    """The markings of the path from the start to `state`: the start's and
    each one a step reaches."""
    trace = []
    while parents[state] is not None:
        prev, stepped = parents[state]
        if stepped:
            trace.append(_tokens(state))
        state = prev
    trace.append(_tokens(state))
    return tuple(reversed(trace))
