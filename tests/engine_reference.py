"""The tables of `_Engine`, built as `_Engine.__init__` built them before
its one-pass build, one table per pass over the transitions.

`net_tables` rebuilds the tables of the net alone, which the engine now
reads from `Net.compiled`; `engine_tables` takes an engine for its
universe-derived masks (`rowmask`, `colmask`, `theta_row`, `theta_col`,
`core_mask`) and rebuilds the tables of its universe. Both take a pre-set's
places from `set(tokens)` per table and per side, and build lists and
dicts, so the tests turn them into the compiled view's tuples
(`frozen`) before comparing. `theta_conds` holds each `covers` in the
iteration order of a `set`, so compare covers as multisets; `touched`
holds each transition's places in set order, so compare them as sets.
"""
from pneq.net import _tau_sequential


def net_tables(net) -> dict:
    key = net.place_index
    trans = list(net.transitions)
    pre_tok = [t.pre.tokens() for t in trans]
    post_tok = [t.post.tokens() for t in trans]
    by_label: dict = {}
    by_pre: dict = {}
    for i, t in enumerate(trans):
        by_label.setdefault(t.label, []).append(i)
        by_pre.setdefault((t.label, pre_tok[i]), []).append(i)
    return {
        "pre_tok": pre_tok,
        "post_tok": post_tok,
        "pre_items": [tuple(sorted(t.pre.items())) for t in trans],
        "touched": [set(pre) | set(post) for pre, post in zip(pre_tok, post_tok)],
        "tau_seq": [_tau_sequential(t) for t in trans],
        "by_label": by_label,
        "by_pre": by_pre,
        "pre_places": [sum(1 << key[p] for p in set(tok)) for tok in pre_tok],
    }


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
