"""Information process, canonical representatives, and equivalence testing.

Every node at level t of a scenario tree determines an information state:
its value at time t together with the conditional law of the next-step
information state.  Two trees describe the same filtered process exactly
when their level-1 information laws coincide, and merging siblings with
equal states yields the minimal representative of the equivalence class.

One builder computes the states a level at a time from the leaves up, as
flat records, merging siblings as it goes; the only thing a tolerance
changes is the comparison ``_close`` that decides when two states are the
same.  Nothing recurses, so trees of any depth have canonical forms.
"""

from __future__ import annotations

from typing import NamedTuple

from .trees import TreeProcess, _check_shapes, _check_tolerance, build_process

__all__ = ["InfoState", "information_process", "canonicalize", "equivalent"]


class InfoState(NamedTuple):
    """Value at the current step plus the conditional law of the next state.

    ``law`` is None at the terminal level, otherwise a tuple of
    ``(InfoState, probability)`` pairs with distinct states, positive masses
    summing to one, sorted by the states' tuple order.
    """

    value: tuple[float, ...]
    law: tuple[tuple["InfoState", float], ...] | None = None


def _close(a: list, b: list, t: int, i: int, j: int, tol: float) -> bool:
    """Whether state ``i`` of level ``t`` of the records ``a`` and state ``j`` of
    that level of ``b`` count as the same: values and masses agreeing
    componentwise within ``tol`` (exact equality at zero), down to the leaves."""
    stack = [(t, i, j)]
    while stack:
        t, i, j = stack.pop()
        (va, la, _), (vb, lb, _) = a[t], b[t]
        la, lb = la[i], lb[j]
        if (len(la) != len(lb) or any(abs(x - y) > tol for x, y in zip(va[i], vb[j]))
                or any(abs(qa - qb) > tol for (_, qa), (_, qb) in zip(la, lb))):
            return False
        stack += [(t + 1, ca, cb) for (ca, _), (cb, _) in zip(la, lb)]
    return True


def _merge(records: list, t: int, kids: range, prob: list[float], tol: float) -> tuple:
    """Merged law of the sibling states ``kids`` of level ``t``, grouped greedily
    in node-list order, the first state of a group representing it: a state
    equal to an earlier sibling's (the same rank) joins its group, and only
    with ``tol`` > 0 is a new one compared with the representatives so far."""
    ranks, rep, masses = records[t][2], {}, {}
    for c in kids:
        if ranks[c] not in rep:
            near = (r for r in (masses if tol > 0.0 else ()) if _close(records, records, t, r, c, tol))
            rep[ranks[c]] = next(near, c)
        masses.setdefault(rep[ranks[c]], []).append(prob[c])
    return tuple(sorted(((r, sum(sorted(qs))) for r, qs in masses.items()), key=lambda e: ranks[e[0]]))


def _states(proc: TreeProcess, tol: float) -> list:
    """Every level's states as flat records, built from the layout a level at a
    time from the leaves up (a node's children: its ``bounds`` slice of the
    level below).  Level t's record lists per node its value, its merged law
    as (position of the representative child in level t + 1, mass) pairs in
    state order, and its rank: equal states share a rank, and sorting by rank
    sorts the states in ``InfoState`` tuple order."""
    records: list = [None] * (proc.depth + 1)
    laws, below = [()] * len(proc.layout[-1].ids), []
    for t in range(proc.depth, -1, -1):
        level = proc.layout[t]
        if t < proc.depth:
            bounds, prob = level.bounds.tolist(), proc.layout[t + 1].prob.tolist()
            laws = [_merge(records, t + 1, range(a, b), prob, tol) for a, b in zip(bounds, bounds[1:])]
            below = records[t + 1][2]
        values = list(map(tuple, level.values.tolist()))
        keys = [(v, tuple((below[c], q) for c, q in law)) for v, law in zip(values, laws)]
        rank = {key: r for r, key in enumerate(sorted(set(keys)))}
        records[t] = (values, laws, list(map(rank.__getitem__, keys)))
    return records


def information_process(proc: TreeProcess) -> dict[int, InfoState]:
    """Information state of every node at level >= 1.

    Terminal nodes carry their value; an interior node carries its value and
    the edge-probability mixture of its children's states, with identical
    children merged by summing mass.
    """
    out: dict[int, InfoState] = {}
    below: list[InfoState] = []
    for level, (values, laws, _) in zip(proc.layout[:0:-1], _states(proc, 0.0)[:0:-1]):
        states = [InfoState(v, tuple((below[c], q) for c, q in law) or None) for v, law in zip(values, laws)]
        out.update(zip(level.ids, states))
        below = states
    return out


def canonicalize(proc: TreeProcess, tol: float = 0.0) -> TreeProcess:
    """Minimal representative: siblings with equal information states merged.

    With ``tol`` zero the merge uses exact equality of states and the result
    is idempotent node-for-node.  A positive ``tol`` merges states whose
    values and probabilities agree componentwise within ``tol``, greedily in
    node-list order with the first node winning.
    """
    _check_tolerance(tol)
    records = _states(proc, tol)
    # the build_process branches of the root's merged law, by an explicit-stack walk
    branches: list = []
    stack = [(1, records[0][1][0], branches)]
    while stack:
        t, law, out = stack.pop()
        values, laws, _ = records[t]
        for c, q in law:
            out.append((q, values[c], kids := []))
            if laws[c]:
                stack.append((t + 1, laws[c], kids))
    return build_process(proc.value_dims, branches)


def equivalent(a: TreeProcess, b: TreeProcess, tol: float = 0.0) -> bool:
    """True iff the two processes have adapted distance zero for every order.

    Tested as equality of the laws of the time-1 information states, i.e.
    isomorphism of canonical forms (values and masses within ``tol`` when
    positive).
    """
    _check_shapes(a, b)
    _check_tolerance(tol)
    # compare the laws as the laws of the two value-less root states
    return _close(_states(a, tol), _states(b, tol), 0, 0, 0, tol)
