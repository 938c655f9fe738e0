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

from bisect import insort
from collections import deque
from collections.abc import Mapping

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


def run_search(adj: Mapping, start_tokens: tuple, psi_ok, goal, node_budget: int):
    """The first silent response from `start_tokens`, breadth first.

    States are (pending tokens, active block, finished tokens, marking),
    each a sorted token tuple but the block; only a move step changes the
    marking. Every step fires from a marking that must satisfy `psi_ok`,
    the final marking is exempt. A response succeeds when all tokens are
    finished and `goal` accepts the finished tokens: `goal` is a predicate,
    or one final marking as a sorted token tuple. An exact goal drops each
    state whose finished tokens, which never move again, it does not hold;
    the live states keep their order and parents, so the trace is that of
    the predicate `goal.__eq__`, from fewer nodes.

    A response is its trace: the sorted token tuples of the markings it
    passes, one before each step plus the final one. A step idles or moves
    a token; closing a block is no step. None when no acyclic response
    exists. The per-block acyclicity bound caps every block at one visit
    per place, so absence of a hit is conclusive. Raises SearchBudgetError
    past the node budget: an aborted search never reports absence.
    """
    exact = isinstance(goal, tuple)
    marking = tuple(sorted(start_tokens))
    start = (marking, None, (), marking)
    parents: dict = {start: None}  # state -> (parent, whether a step reached it)
    queue = deque([start])
    nodes = 0

    def finish(pending, done, p, marking):  # token p finishes; None if dead
        if not exact or done.count(p) < goal.count(p):
            return pending, None, tuple(sorted(done + (p,))), marking

    while queue:
        state = queue.popleft()
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetError(
                f"silent response search exceeded {node_budget} nodes", nodes
            )
        pending, active, done, marking = state
        if active is None and not pending:
            if done == goal if exact else goal(done):
                return _trace(parents, state)
            continue
        # (whether a step idles or moves a token, next state or None);
        # closing a block is no step
        successors = []
        can_step = psi_ok(marking)
        if active is not None:
            p0, cur, visited = active
            successors.append((False, finish(pending, done, cur, marking)))
            if can_step:
                for nxt, _tid in adj.get(cur, ()):
                    if nxt in visited:  # cur itself is always in visited
                        continue
                    moved = _moved(marking, cur, nxt)
                    # returning to the block's start closes it
                    successors.append((True, finish(pending, done, nxt, moved) if nxt == p0
                                       else (pending, (p0, nxt, visited | {nxt}), done, moved)))
        elif can_step:
            for i, p in enumerate(pending):
                if i and p == pending[i - 1]:
                    continue  # each distinct token once
                rest = pending[:i] + pending[i + 1:]
                successors.append((True, finish(rest, done, p, marking)))
                for nxt, _tid in adj.get(p, ()):
                    if nxt == p:
                        nstate = finish(rest, done, p, marking)
                    else:
                        nstate = (rest, (p, nxt, frozenset((nxt,))), done,
                                  _moved(marking, p, nxt))
                    successors.append((True, nstate))
        for stepped, nstate in successors:
            if nstate is not None and nstate not in parents:
                parents[nstate] = (state, stepped)
                queue.append(nstate)
    return None


def silent_traces(adj: Mapping, start_tokens: tuple, goal, node_budget: int) -> list:
    """A trace of `run_search`'s responses from `start_tokens` to `goal`, psi
    holding everywhere, per final state and set of markings passed, the final
    one included: states merge only when they passed the same markings. A
    self-loop idles. Walked depth first on an explicit stack; raises
    SearchBudgetError past `node_budget` states."""
    exact = isinstance(goal, tuple)
    found = {}
    seen = set()

    def finish(pending, done, p, trace):  # token p finishes, unless the goal has no room
        if not exact or done.count(p) < goal.count(p):
            succ.append((pending, None, tuple(sorted(done + (p,))), trace))

    marking = tuple(sorted(start_tokens))
    stack = [(marking, None, (), (marking,))]
    while stack:
        pending, active, done, trace = stack.pop()
        if (key := (pending, active, done, frozenset(trace))) in seen:
            continue
        seen.add(key)
        if len(seen) > node_budget:
            raise SearchBudgetError(f"silent trace walk exceeded {node_budget} nodes", len(seen))
        succ = []
        if active is not None:
            p0, cur, visited = active
            finish(pending, done, cur, trace)
            for nxt, _tid in adj.get(cur, ()):
                if nxt not in visited:
                    moved = trace + (_moved(trace[-1], cur, nxt),)
                    if nxt == p0:
                        finish(pending, done, nxt, moved)
                    else:
                        succ.append((pending, (p0, nxt, visited | {nxt}), done, moved))
        elif pending:
            for i, p in enumerate(pending):
                if i and p == pending[i - 1]:
                    continue
                rest = pending[:i] + pending[i + 1:]
                finish(rest, done, p, trace + trace[-1:])
                for nxt, _tid in adj.get(p, ()):
                    if nxt != p:
                        succ.append((rest, (p, nxt, frozenset((nxt,))), done,
                                     trace + (_moved(trace[-1], p, nxt),)))
        elif done == goal if exact else goal(done):
            found[trace] = None
        stack.extend(reversed(succ))  # the first successor is walked first
    return list(found)


def _moved(marking, src, dst) -> tuple:
    """The sorted marking with one token moved from `src` to `dst`."""
    toks = list(marking)
    toks.remove(src)
    insort(toks, dst)
    return tuple(toks)


def _trace(parents, state) -> tuple:
    """The markings of the path from the start to `state`: the start's and
    each one a step reaches."""
    trace = []
    while parents[state] is not None:
        prev, stepped = parents[state]
        if stepped:
            trace.append(state[3])
        state = prev
    trace.append(state[3])
    return tuple(reversed(trace))
