"""Silent-move machinery: idling steps and constrained silent responses.

Only silent transitions with singleton pre- and post-set can be abstracted
in the branching games. A response is a sequence of per-token blocks, each
block either a single idling step or an acyclic walk of such transitions
over one token; every marking the sequence steps from must stay
closure-related to the anchor marking (the matched transition's pre-set).
"""
from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple, Optional

from .errors import SearchBudgetError
from .multiset import Marking
from .net import TAU, Net, Transition

DEFAULT_NODE_BUDGET = 1_000_000


class SilentStep(NamedTuple):
    kind: str  # "idle" or "move"
    ref: str  # the idled place, or the transition id


def is_tau_sequential(net: Net, t: Transition) -> bool:
    """Silent with exactly one input token and one output token."""
    net.check_transition(t)
    return _tau_sequential(t)


def _tau_sequential(t: Transition) -> bool:
    return t.label == TAU and t.pre.size == 1 and t.post.size == 1


def silent_graph(net: Net) -> dict:
    """Adjacency of tau-sequential moves: place -> ((next place, tid), ...).

    A real silent self-loop transition does appear as an edge; idling steps
    are synthesized by the search instead and are never part of the graph.
    """
    adj: dict[str, list] = {}
    for t in net.transitions:  # the net's own, so valid: no check_transition
        if _tau_sequential(t):
            src = next(iter(t.pre))
            dst = next(iter(t.post))
            adj.setdefault(src, []).append((dst, t.tid))
    return {p: tuple(sorted(targets)) for p, targets in adj.items()}


def silent_reachable(adj: dict, places) -> frozenset:
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
    adj: dict,
    start_tokens: tuple,
    psi_ok: Callable[[tuple], bool],
    target: Optional[tuple] = None,
    final_ok: Optional[Callable[[tuple], bool]] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    collect: int = 0,
):
    """Breadth-first search for a silent response from `start_tokens`.

    States are (pending tokens, active block, finished tokens); every step
    fires from a marking that must satisfy `psi_ok`, the final marking is
    exempt. The response succeeds when all tokens are finished and either
    the finished multiset equals `target` or `final_ok` accepts it.

    Returns (blocks, markings) for the first hit, a list of those tuples
    when `collect` > 0, or None/[] when no acyclic response exists. The
    per-block acyclicity bound caps every block at one visit per place, so
    absence of a hit is conclusive. Raises SearchBudgetError past the
    node budget: an aborted search never reports absence.
    """

    def marking_of(state):
        pending, active, done = state
        toks = list(pending) + list(done)
        if active is not None:
            toks.append(active[1])
        return tuple(sorted(toks))

    def goal_hit(done):
        if target is not None:
            return done == target
        return final_ok(done)

    start = (tuple(sorted(start_tokens)), None, ())
    parents: dict = {start: None}
    queue = deque([start])
    psi_cache: dict = {}
    results = []
    nodes = 0

    def psi(mk):
        if mk not in psi_cache:
            psi_cache[mk] = psi_ok(mk)
        return psi_cache[mk]

    def record(state):
        blocks, markings = _reconstruct(parents, state, start)
        results.append((blocks, markings))

    while queue:
        state = queue.popleft()
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetError(
                f"silent response search exceeded {node_budget} nodes", nodes
            )
        pending, active, done = state
        if active is None and not pending:
            if goal_hit(done):
                record(state)
                if not collect or len(results) >= collect:
                    break
            continue
        successors = []
        mk = marking_of(state)
        can_step = psi(mk)
        if active is not None:
            p0, cur, visited = active
            successors.append((("close",), (pending, None, tuple(sorted(done + (cur,))))))
            if can_step:
                for nxt, tid in adj.get(cur, ()):
                    if nxt in visited:  # cur itself is always in visited
                        continue
                    if nxt == p0:
                        # returning to the block's start closes it
                        nstate = (pending, None, tuple(sorted(done + (nxt,))))
                    else:
                        nstate = (pending, (p0, nxt, visited | {nxt}), done)
                    successors.append((("step", tid, nxt), nstate))
        elif can_step:
            for p in sorted(set(pending)):
                rest = list(pending)
                rest.remove(p)
                rest = tuple(rest)
                successors.append(
                    (("idle", p), (rest, None, tuple(sorted(done + (p,)))))
                )
                for nxt, tid in adj.get(p, ()):
                    if nxt == p:
                        nstate = (rest, None, tuple(sorted(done + (p,))))
                    else:
                        nstate = (rest, (p, nxt, frozenset((nxt,))), done)
                    successors.append((("start", tid, p, nxt), nstate))
        for action, nstate in successors:
            if nstate not in parents:
                parents[nstate] = (state, action)
                queue.append(nstate)
    if collect:
        return results
    return results[0] if results else None


def _reconstruct(parents, state, start):
    actions = []
    cur = state
    while parents[cur] is not None:
        prev, action = parents[cur]
        actions.append(action)
        cur = prev
    actions.reverse()
    # Replay the actions into blocks and the marking trace.
    tokens = list(start[0])
    markings = [Marking(tokens)]
    blocks: list[list[SilentStep]] = []
    open_block: Optional[list] = None
    open_pos: Optional[str] = None

    def step_to(old: str, new: str):
        tokens.remove(old)
        tokens.append(new)
        markings.append(Marking(tokens))

    for action in actions:
        if action[0] == "idle":
            blocks.append([SilentStep("idle", action[1])])
            markings.append(markings[-1])
        elif action[0] == "start":
            _, tid, p0, nxt = action
            step_to(p0, nxt)
            if nxt == p0:
                blocks.append([SilentStep("move", tid)])
            else:
                open_block = [SilentStep("move", tid)]
                open_pos = nxt
                blocks.append(open_block)
        elif action[0] == "step":
            _, tid, nxt = action
            step_to(open_pos, nxt)
            open_block.append(SilentStep("move", tid))
            open_pos = nxt
        else:  # close
            open_block = None
            open_pos = None
    return tuple(tuple(b) for b in blocks), tuple(markings)
