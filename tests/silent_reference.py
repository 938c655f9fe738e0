"""The block-building silent-response search that `pneq.silent.run_search`
replaced, kept as a reference.

`run_search` here returns each response as (blocks, trace): its per-token
blocks of SilentSteps, as `silent_replay.replay` fires them, and the trace
of markings it passes. `pneq.silent.run_search` returns the traces alone,
in the same order; `tests/test_silent.py` pins the two together.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple

from pneq.errors import SearchBudgetError


class SilentStep(NamedTuple):
    kind: str  # "idle" or "move"
    ref: str  # the idled place, or the transition id


def run_search(
    adj: dict,
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

    A response is (blocks, trace): its blocks of SilentSteps, and the sorted
    token tuples of the markings it passes, one before each step plus the
    final one. The list is empty when no acyclic response exists. The
    per-block acyclicity bound caps every block at one visit per place, so
    absence of a hit is conclusive. Raises SearchBudgetError past the node
    budget: an aborted search never reports absence.
    """
    start = (tuple(sorted(start_tokens)), None, ())
    parents: dict = {start: None}
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
                found.append(_reconstruct(parents, state))
                if len(found) == limit:
                    break
            continue
        # (action, next state); an action is ("idle", place), ("move", tid)
        # opening a block, ("step", tid) extending it, or None closing it
        successors = []
        can_step = psi(_tokens(state))
        if active is not None:
            p0, cur, visited = active
            successors.append((None, (pending, None, tuple(sorted(done + (cur,))))))
            if can_step:
                for nxt, tid in adj.get(cur, ()):
                    if nxt in visited:  # cur itself is always in visited
                        continue
                    if nxt == p0:
                        # returning to the block's start closes it
                        nstate = (pending, None, tuple(sorted(done + (nxt,))))
                    else:
                        nstate = (pending, (p0, nxt, visited | {nxt}), done)
                    successors.append((("step", tid), nstate))
        elif can_step:
            for p in sorted(set(pending)):
                rest = list(pending)
                rest.remove(p)
                rest = tuple(rest)
                successors.append((("idle", p), (rest, None, tuple(sorted(done + (p,))))))
                for nxt, tid in adj.get(p, ()):
                    if nxt == p:
                        nstate = (rest, None, tuple(sorted(done + (p,))))
                    else:
                        nstate = (rest, (p, nxt, frozenset((nxt,))), done)
                    successors.append((("move", tid), nstate))
        for action, nstate in successors:
            if nstate not in parents:
                parents[nstate] = (state, action)
                queue.append(nstate)
    return found


def _tokens(state) -> tuple:
    """The sorted tokens of a search state's marking."""
    pending, active, done = state
    toks = list(pending) + list(done)
    if active is not None:
        toks.append(active[1])
    return tuple(sorted(toks))


def _reconstruct(parents, state) -> tuple:
    """(blocks, trace) of the path from the start to `state`."""
    path = []
    while parents[state] is not None:
        prev, action = parents[state]
        path.append((action, state))
        state = prev
    blocks: list[list[SilentStep]] = []
    trace = [_tokens(state)]
    for action, reached in reversed(path):
        if action is None:
            continue  # closing a block leaves the marking as it is
        kind, ref = action
        if kind == "step":
            blocks[-1].append(SilentStep("move", ref))
        else:
            blocks.append([SilentStep(kind, ref)])
        trace.append(_tokens(reached))
    return tuple(tuple(b) for b in blocks), tuple(trace)
