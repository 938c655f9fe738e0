"""The tables of `_Engine`, built as `_Engine.__init__` built them before
its one-pass build, one table per pass over the transitions, and the
answer rule as it ran before one table of answerers served every kind.

`net_tables` rebuilds the tables of the net alone, which the engine now
reads from `Net.compiled`, and the label indices the old answer rule read:
`by_label` (label -> its transitions) and `by_pre` ((label, pre-set
tokens) -> its transitions), from `net.transitions`, never from the view
under test. `engine_tables` takes an engine for its
universe-derived masks (`rowmask`, `colmask`, `theta_row`, `theta_col`,
`core_mask`) and rebuilds the tables of its universe. Both take a pre-set's
places from `set(tokens)` per table and per side, and build lists and
dicts, so the tests turn them into the compiled view's tuples
(`frozen`) before comparing. `theta_conds` holds each `covers` in the
iteration order of a `set`, so compare covers as multisets; `touched`
holds each transition's places in set order, so compare them as sets.

`respond_compute` and `repair_options` are `_Engine._respond_compute` and
`checkers._repair_options` as they were: a strong block over `by_pre`
answering `(m,)`, and a branching block over `by_label` that skips pre-sets
of another size.
"""
import itertools
from collections import Counter

from pneq.checkers import GUIDED_WIDTH
from pneq.net import _tau_sequential
from pneq.silent import run_search


def net_tables(net) -> dict:
    key = net.place_index
    trans = list(net.transitions)
    pre_tok = [t.pre.tokens() for t in trans]
    post_tok = [t.post.tokens() for t in trans]
    by_label, by_pre = label_indices(net)
    return {
        "pre_tok": pre_tok,
        "post_tok": post_tok,
        "pre_items": [tuple(sorted(t.pre.items())) for t in trans],
        "touched": [set(pre) | set(post) for pre, post in zip(pre_tok, post_tok)],
        "tau_seq": [_tau_sequential(t) for t in trans],
        "answerers": [
            tuple(j for j in by_label[t.label] if len(pre_tok[j]) == len(pre_tok[i]))
            for i, t in enumerate(trans)
        ],
        "pre_places": [sum(1 << key[p] for p in set(tok)) for tok in pre_tok],
    }


def label_indices(net):
    """`by_label` and `by_pre`, as `Net.compiled` built them, in net order."""
    by_label: dict = {}
    by_pre: dict = {}
    for i, t in enumerate(net.transitions):
        by_label.setdefault(t.label, []).append(i)
        by_pre.setdefault((t.label, t.pre.tokens()), []).append(i)
    return by_label, by_pre


def frozen(table):
    """A reference table in the compiled view's containers: a list as a
    tuple, a dict's lists as tuples."""
    if isinstance(table, dict):
        return {k: tuple(v) for k, v in table.items()}
    return tuple(table)


def engine_tables(engine) -> dict:
    key = engine.net.place_index
    pre_tok = [t.pre.tokens() for t in engine.net.transitions]
    post_tok = [t.post.tokens() for t in engine.net.transitions]
    partnered = {
        side: [(1 << key[p], mask) for p, mask in masks.items()]
        for side, masks in ((1, engine.rowmask), (2, engine.colmask))
    }
    theta_conds = []
    for ti, tok in enumerate(pre_tok if engine.d else ()):
        dom = set(tok)
        for side, masks, thetas in (
            (1, engine.rowmask, engine.theta_row),
            (2, engine.colmask, engine.theta_col),
        ):
            theta = sum(thetas.get(p, 0) for p in dom)  # distinct bits
            if theta:
                covers = tuple(masks.get(p, 0) | thetas.get(p, 0) for p in dom)
                theta_conds.append((ti, side, covers, theta))
    thetas = engine.universe_mask & ~engine.core_mask if engine.d else 0
    resp_mask = {
        side: [
            sum(masks.get(p, 0) for p in set(pre) | set(post)) | thetas
            for pre, post in zip(pre_tok, post_tok)
        ]
        for side, masks in ((1, engine.rowmask), (2, engine.colmask))
    }
    return {
        "partnered": partnered,
        "theta_conds": theta_conds,
        "resp_mask": resp_mask,
    }


def respond_compute(engine, ti, m, side, rbits):
    """The trace of a response to transition `ti` moving from `m` on `side`
    under `rbits`, `(m,)` for a strong answer; None when there is none."""
    c = engine.compiled
    t = engine.net.transitions[ti]
    by_label, by_pre = label_indices(engine.net)
    adj = engine.net.silent_moves
    post = c.post_tok[ti]

    if not engine.branching:
        for cj in by_pre.get((t.label, m), ()):
            cpost = c.post_tok[cj]
            left, right = (post, cpost) if side == 1 else (cpost, post)
            if engine.member(left, right, rbits, engine.d):
                return (m,)
        return None

    bar = rbits & engine.core_mask if engine.d else rbits
    anchor = c.pre_tok[ti]
    if side == 1:
        psi_ok = lambda mk: engine.member(anchor, mk, bar, False)
    else:
        psi_ok = lambda mk: engine.member(mk, anchor, bar, False)

    if c.tau_seq[ti]:
        if side == 1:
            final_ok = lambda f: (
                engine.member(anchor, f, bar, False) and engine.member(post, f, bar, False)
            )
        else:
            final_ok = lambda f: (
                engine.member(f, anchor, bar, False) and engine.member(f, post, bar, False)
            )
        if final_ok(m):
            return (m, m)
        found = run_search(adj, m, psi_ok, final_ok, engine.node_budget)
        if found:
            return found[0]

    for cj in by_label.get(t.label, ()):
        cpre = c.pre_tok[cj]
        if len(cpre) != len(m):
            continue
        cpost = c.post_tok[cj]
        if side == 1:
            if not engine.member(anchor, cpre, bar, False):
                continue
            if not engine.member(post, cpost, rbits, engine.d):
                continue
        else:
            if not engine.member(cpre, anchor, bar, False):
                continue
            if not engine.member(cpost, post, rbits, engine.d):
                continue
        if cpre == m:
            # answering with idling on every token
            return (m,) * (len(m) + 1)
        found = run_search(adj, m, psi_ok, cpre.__eq__, engine.node_budget)
        if found:
            return found[0]
    return None


def repair_options(engine, ti, m, side, rbits) -> set:
    """The masks of pair additions that could discharge the failed
    condition (ti, m, side), each once, in no particular order."""
    c = engine.compiled
    t = engine.net.transitions[ti]
    by_label, by_pre = label_indices(engine.net)
    adj = engine.net.silent_moves
    anchor = c.pre_tok[ti]
    post = c.post_tok[ti]
    d = engine.d

    def oriented(x, y):
        return (x, y) if side == 1 else (y, x)

    # a requirement: a marking pair, and whether it is a post-set pair, which
    # d matches under the theta-extended closure
    requirements_sets = []
    always_true = lambda mk: True
    if engine.branching:
        sigma_limit = 4
        if c.tau_seq[ti]:
            for trace in run_search(
                adj, m, always_true, always_true, engine.node_budget, sigma_limit
            ):
                final = trace[-1]
                reqs = [(oriented(anchor, mk), False) for mk in trace[:-1]]
                reqs.append((oriented(anchor, final), False))
                reqs.append((oriented(post, final), False))
                requirements_sets.append(reqs)
        for cj in by_label.get(t.label, ()):
            cpre = c.pre_tok[cj]
            if len(cpre) != len(m):
                continue
            cpost = c.post_tok[cj]
            for trace in run_search(
                adj, m, always_true, cpre.__eq__, engine.node_budget, sigma_limit
            ):
                reqs = [(oriented(anchor, mk), False) for mk in trace[:-1]]
                reqs.append((oriented(anchor, cpre), False))
                reqs.append((oriented(post, cpost), d))
                requirements_sets.append(reqs)
    else:
        for cj in by_pre.get((t.label, m), ()):
            cpost = c.post_tok[cj]
            requirements_sets.append([(oriented(post, cpost), d)])

    options = set()
    for reqs in requirements_sets:
        choice_lists = []
        for (left, right), use_d in reqs:
            allowed = engine.universe_mask if use_d else engine.core_mask
            if engine.member(left, right, rbits & allowed, use_d):
                continue
            found = engine.associations(Counter(left).items(), Counter(right).items(),
                                        allowed, use_d)
            choices = [q & ~rbits for q in itertools.islice(found, GUIDED_WIDTH)]
            if not choices:
                break  # a requirement no addition can meet
            choice_lists.append(choices)
        else:
            # with no choice lists, the one empty addition is dropped below
            for combo in itertools.islice(
                itertools.product(*choice_lists), GUIDED_WIDTH * 4
            ):
                additions = 0
                for q in combo:
                    additions |= q
                options.add(additions)
    options.discard(0)
    return options
