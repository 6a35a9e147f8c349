"""Information process, canonical representatives, and equivalence testing.

Every node at level t of a scenario tree determines an information state:
its value at time t together with the conditional law of the next-step
information state.  Two trees describe the same filtered process exactly
when their level-1 information laws coincide, and merging siblings with
equal states yields the minimal representative of the equivalence class.

One builder computes the states a level at a time from the leaves up, as
flat records, merging siblings with equal states as it goes.  A tolerance
never changes that rule: ``canonicalize`` snaps the values to a grid first,
and ``equivalent`` bounds the adapted distance of the exact forms.  Nothing
recurses, so trees of any depth have canonical forms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import bicausal   # bicausal.aw_distance looked up per call, where perfbench/tracer.py wraps it
from .trees import TreeProcess, _check_shapes, _check_tolerance, build_process, process_with_values

__all__ = ["InfoState", "information_process", "canonicalize", "equivalent"]


class InfoState(NamedTuple):
    """Value at the current step plus the conditional law of the next state.

    ``law`` is None at the terminal level, otherwise a tuple of
    ``(InfoState, probability)`` pairs with distinct states, positive masses
    summing to one, sorted by the states' tuple order.
    """

    value: tuple[float, ...]
    law: tuple[tuple["InfoState", float], ...] | None = None


def _states(proc: TreeProcess) -> list:
    """Every level's states as flat records, built from the layout a level at a
    time from the leaves up (a node's children: its ``bounds`` slice of the
    level below).  Level t's record lists per node its value, its merged law
    as (position of the first child of each state in level t + 1, summed
    mass) pairs in state order, and its rank: equal states share a rank, and
    sorting by rank sorts the states in ``InfoState`` tuple order."""
    records: list = [None] * (proc.depth + 1)
    laws, below = [()] * len(proc.layout[-1].ids), []
    for t in range(proc.depth, -1, -1):
        level = proc.layout[t]
        if t < proc.depth:
            bounds, prob, below = level.bounds.tolist(), proc.layout[t + 1].prob.tolist(), records[t + 1][2]
            laws = []
            for a, b in zip(bounds, bounds[1:]):
                groups: dict = {}   # rank -> [first child, its masses...]
                for c in range(a, b):
                    groups.setdefault(below[c], [c]).append(prob[c])
                laws.append(tuple((g[0], sum(sorted(g[1:]))) for _, g in sorted(groups.items())))
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
    for level, (values, laws, _) in zip(proc.layout[:0:-1], _states(proc)[:0:-1]):
        states = [InfoState(v, tuple((below[c], q) for c, q in law) or None) for v, law in zip(values, laws)]
        out.update(zip(level.ids, states))
        below = states
    return out


def canonicalize(proc: TreeProcess, tol: float = 0.0) -> TreeProcess:
    """Minimal representative: siblings with equal information states merged.

    The result is idempotent node-for-node.  A positive ``tol`` first moves
    every value component to the nearest grid point k * tol (ties to even; a
    zero is written 0.0, never -0.0), keeping a value whose grid point floats
    cannot hold within tol / 2.  The identity coupling with the snapped tree
    is bicausal and moves each step by at most sqrt(d) * tol / 2, d the
    largest value dimension, so AW_p(proc, result) <= T**(1/p) * sqrt(d) *
    tol / 2 at depth T; the result does not depend on the node list's order.
    """
    _check_tolerance(tol)
    if tol > 0.0:
        with np.errstate(over="ignore"):   # value / tol with a subnormal tol
            snapped = [(np.rint(level.values / tol) * tol, level.values) for level in proc.layout[1:]]
        proc = process_with_values(proc, [np.where(abs(s - v) <= tol / 2, s, v) + 0.0 for s, v in snapped])
    records = _states(proc)
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
    """True iff the processes have adapted distance zero for every order, or,
    for a positive ``tol``, AW_1 (the smallest AW_p) at most ``tol``.  AW = 0
    exactly when the canonical forms are equal, since equal states emit
    identical subtrees in rank order; values too far apart for a float cost
    are farther apart than any ``tol``.
    """
    _check_shapes(a, b)
    _check_tolerance(tol)
    ca, cb = canonicalize(a), canonicalize(b)
    try:
        return ca == cb or tol > 0.0 and bicausal.aw_distance(ca, cb, 1.0)[0] <= tol
    except OverflowError:
        return False
