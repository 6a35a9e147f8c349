"""Information process, canonical representatives, and equivalence testing.

Every node at level t of a scenario tree determines an information state:
its value at time t together with the conditional law of the next-step
information state.  Two trees describe the same filtered process exactly
when their level-1 information laws coincide, and merging siblings with
equal states yields the minimal representative of the equivalence class.

One builder computes the states a level at a time from the leaves up, as
arrays, merging siblings with equal states as it goes: the states of a
level are ranked by sorting, in the tree-isomorphism manner of Aho,
Hopcroft and Ullman, and siblings are grouped by rank.  A tolerance never
changes that rule: ``canonicalize`` snaps the values to a grid first, and
``equivalent`` bounds the adapted distance of the exact forms.  Its verdict
comes from the first of three tests that decides: with a tolerance, a lower
bound on AW_1 from the level marginals, one sort and no canonical form or
solve; then equal exact forms; then the backward induction.  Nothing recurses, so trees of
any depth have canonical forms.  A non-finite value or edge probability has
no place in the order, and raises ValueError.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import bicausal   # bicausal.aw_distance looked up per call, where perfbench/tracer.py wraps it
from .trees import (PROB_TOL, TreeProcess, _check_finite, _check_shapes, _check_tolerance, _child_sums_off,
                    _norms, _running_sums, _segment_sums, build_process, process_with_values)

__all__ = ["InfoState", "information_process", "canonicalize", "equivalent"]

# The marginal bound says "not equivalent" only when it exceeds ``tol`` by
# more than this times the sum over levels of the level's value diameter
# (the diagonal of the box holding both trees' values).  Each of the bound's
# masses, its CDF sums and the induction's value errs by at most about
# (N + T) * 2**-53 of that sum for N nodes and depth T; the slack covers the
# three with room to spare up to N + T = 2**20, about a million nodes.  A
# tree whose children sum to one only within PROB_TOL adds 4 * T * PROB_TOL
# to it: its masses drift by up to t * PROB_TOL at level t, which moves the
# bound and the induction's value by up to 2 * T * PROB_TOL of the sum each.
_BOUND_SLACK = 2.0 ** -30


class InfoState(NamedTuple):
    """Value at the current step plus the conditional law of the next state.

    ``law`` is None at the terminal level, otherwise a tuple of
    ``(InfoState, probability)`` pairs with distinct states, positive masses
    summing to one, sorted by the states' tuple order.
    """

    value: tuple[float, ...]
    law: tuple[tuple["InfoState", float], ...] | None = None


class _States(NamedTuple):
    """The states of one level t as arrays.  Node k's merged law is entries
    ``law[k]:law[k + 1]``, in state order; entry e is the state of
    ``child[e]``, a position in level t + 1 (the first child by position in
    that state), with summed mass ``mass[e]``."""

    values: np.ndarray
    law: np.ndarray
    child: np.ndarray
    mass: np.ndarray


def _merge(parent: np.ndarray, prob: np.ndarray, rank: np.ndarray, n: int):
    """The merged laws of n nodes from their children's parent positions,
    edge probabilities and ranks: children grouped by (parent, rank) with one
    ``np.lexsort``, a group's mass its masses sorted ascending and summed
    left to right from +0.0 (``_segment_sums``).  Returns (law, child, mass)
    as in ``_States``."""
    order = np.lexsort((prob, rank, parent))
    p, r = parent[order], rank[order]
    new = np.ones(order.size, dtype=bool)       # a group starts
    new[1:] = (p[1:] != p[:-1]) | (r[1:] != r[:-1])
    first = np.flatnonzero(new)
    mass = _segment_sums(prob[order], np.diff(np.append(first, order.size)))
    return np.searchsorted(p[first], np.arange(n + 1)), np.minimum.reduceat(order, first), mass


def _ranks(values: np.ndarray, law: np.ndarray | None = None, rank: np.ndarray | None = None,
           mass: np.ndarray | None = None) -> np.ndarray:
    """Dense ranks of states in ``InfoState`` tuple order, equal states
    sharing a rank.  A state is keyed by its value row, then by its law, whose
    entries carry the ranks ``rank`` and masses ``mass`` (no law: values
    only).  Values sort column by column; then the law entries, (rank,
    mass), one position j at a time and only within runs still tied (most
    significant first), a law before a longer one that it is a prefix of."""
    order = np.lexsort(values.T[::-1]) if values.shape[1] else np.arange(len(values))
    rows = values[order]
    new = np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))   # a run of equal keys starts
    tied = np.flatnonzero(~(new & np.append(new[1:], True)))             # positions in runs of two or more
    j = 0
    while tied.size and law is not None:
        node = order[tied]
        at, end = law[node] + j, law[node + 1]
        has = at < end
        at = np.where(has, at, 0)
        key_r, key_q = np.where(has, rank[at], -1), np.where(has, mass[at], 0.0)
        perm = np.lexsort((key_q, key_r, np.cumsum(new[tied])))
        order[tied] = node[perm]
        key_r, key_q = key_r[perm], key_q[perm]
        new[tied[1:]] |= (key_r[1:] != key_r[:-1]) | (key_q[1:] != key_q[:-1])
        # the runs still tied in which some law goes on past position j
        start = new[tied]
        run = np.cumsum(start) - 1
        longer = np.bincount(run, (end - at > 1)[perm] & has[perm]) > 0
        tied = tied[~(start & np.append(start[1:], True)) & longer[run]]
        j += 1
    out = np.empty(order.size, dtype=np.intp)
    out[order] = np.cumsum(new) - 1
    return out


def _single_levels(layout) -> list[bool]:
    """For t = 0..T-1, whether every node of level t has exactly one child:
    the node at its own position in level t + 1."""
    sizes = [len(level.ids) for level in layout]
    parent = np.concatenate([level.parent for level in layout[1:]])
    first = np.repeat(np.cumsum([0] + sizes[1:-1]), sizes[1:])      # each node's level's first position
    other = np.repeat(np.arange(len(sizes) - 1), sizes[1:])[parent != np.arange(parent.size) - first]
    moved = np.bincount(other, minlength=len(sizes) - 1).tolist()
    return [n == m and not k for n, m, k in zip(sizes, sizes[1:], moved)]


def _states(proc: TreeProcess) -> list[_States]:
    """Every level's states, built from the layout a level at a time from
    the leaves up (a node's children: its ``bounds`` slice of the level
    below), with a fixed number of array operations per level and per law
    position that ties reach.

    Merging needs the ranks of the level below.  Where every node of a level
    has one child, the merge is the children themselves and needs no ranks,
    so a run of such levels down to a ranked level is ranked where the level
    above it merges, in one sort: a state on the run is keyed by the values
    down the run, the rank at its end, and the masses back up."""
    layout, depth = proc.layout, proc.depth
    single = _single_levels(layout)
    count = np.arange(max(len(level.ids) for level in layout) + 1)
    n = len(layout[depth].ids)
    records: list = [None] * depth + [_States(layout[depth].values, np.zeros(n + 1, dtype=np.intp),
                                              count[:0], np.empty(0))]
    ranked, rank = depth, _ranks(layout[depth].values)     # the ranks of level `ranked`
    for t in range(depth - 1, -1, -1):
        level, below = layout[t], layout[t + 1]
        n = len(level.ids)
        if single[t]:
            records[t] = _States(level.values, count[:n + 1], count[:n], below.prob + 0.0)   # one-term sums
            continue
        if ranked > t + 1:
            run = [*(col for lv in layout[t + 1:ranked] for col in lv.values.T),
                   rank, *(lv.prob for lv in layout[ranked:t + 1:-1])]
            rank = _ranks(np.stack(run, axis=1))
        law, child, mass = _merge(below.parent, below.prob, rank, n)
        records[t] = _States(level.values, law, child, mass)
        ranked, rank = t, _ranks(level.values, law, rank[child], mass)
    return records


def information_process(proc: TreeProcess) -> dict[int, InfoState]:
    """Information state of every node at level >= 1.

    Terminal nodes carry their value; an interior node carries its value and
    the edge-probability mixture of its children's states, with identical
    children merged by summing mass.  A non-finite value or edge
    probability raises ValueError.
    """
    _check_finite(proc)
    out: dict[int, InfoState] = {}
    below: list[InfoState] = []
    for level, rec in zip(proc.layout[:0:-1], _states(proc)[:0:-1]):
        law, child, mass = rec.law.tolist(), rec.child.tolist(), rec.mass.tolist()
        states = [InfoState(v, tuple((below[child[e]], mass[e]) for e in range(a, b)) or None)
                  for v, a, b in zip(map(tuple, rec.values.tolist()), law, law[1:])]
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
    _check_finite(proc)
    if tol > 0.0:
        with np.errstate(over="ignore"):   # value / tol with a subnormal tol
            snapped = [(np.rint(level.values / tol) * tol, level.values) for level in proc.layout[1:]]
        proc = process_with_values(proc, [np.where(abs(s - v) <= tol / 2, s, v) + 0.0 for s, v in snapped])
    records = _states(proc)
    values = [rec.values.tolist() for rec in records]
    laws = [(rec.law.tolist(), rec.child.tolist(), rec.mass.tolist()) for rec in records]
    # the build_process branches of the root's merged law, by an explicit-stack walk
    branches: list = []
    stack = [(0, 0, branches)]      # (level, node position, its branches to fill)
    while stack:
        t, k, out = stack.pop()
        law, child, mass = laws[t]
        for e in range(law[k], law[k + 1]):
            out.append((mass[e], values[t + 1][child[e]], kids := []))
            stack.append((t + 1, child[e], kids))
    return build_process(proc.value_dims, branches)


def _marginal_bound(a: TreeProcess, b: TreeProcess) -> tuple[float, float]:
    """L = sum_t |(W_1(law a_t^k, law b_t^k))_k|_2 over levels t and value
    components k, a lower bound on AW_1(a, b), and its slack (``_BOUND_SLACK``
    and 4 * T * PROB_TOL, times the summed level diameters).

    A bicausal coupling couples the level marginals, E|x_t - y_t|_2 is at
    least the 2-norm of the components' E|x_t^k - y_t^k|, and each of those
    is at least W_1, which on the line is the L1 distance of the two CDFs
    (Vallender 1973).  One ``np.lexsort`` of every (level, component, value)
    of both trees, masses signed (a's reaches minus b's), the CDF differences
    summed within each (level, component) group (``_running_sums``), each
    gap times its |CDF| summed per group by ``np.bincount``, and the level
    norms by ``_norms``.  An infinite gap, or level norms whose sum
    overflows, make L infinite, and a gap across which the CDFs agree makes
    it NaN; neither warns."""
    width, n = max(a.value_dims), len(a.value_dims)
    values, group, mass = [], [], []
    for proc, sign in ((a, 1.0), (b, -1.0)):
        levels = proc.layout[1:]
        count = [len(level.ids) for level in levels]
        dims = np.repeat(a.value_dims, count)                    # per node
        first = np.repeat(np.cumsum(dims) - dims, dims)          # per value: its node's first value
        values += [level.values.ravel() for level in levels]
        group.append(np.repeat(np.repeat(np.arange(n) * width, count), dims) + np.arange(first.size) - first)
        mass.append(sign * np.repeat(np.concatenate([level.reach for level in levels]), dims))
    values, group, mass = np.concatenate(values), np.concatenate(group), np.concatenate(mass)
    order = np.lexsort((values, group))
    values, group = values[order], group[order]
    cdf = _running_sums(mass[order], np.bincount(group))
    inside = group[1:] == group[:-1]     # the gap to the next value is inside a group
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.bincount(group[:-1], np.where(inside, np.diff(values) * np.abs(cdf[:-1]), 0.0), n * width)
        bound = _total(_norms(w.reshape(n, width)))
    # the groups' ranges, scaled first so that they cannot overflow
    scaled = values * (_BOUND_SLACK + 4 * n * PROB_TOL)
    spread = np.bincount(group[:-1], np.where(inside, np.diff(scaled), 0.0), n * width)
    return bound, _total(_norms(spread.reshape(n, width)))


def _total(norms: np.ndarray) -> float:
    """``math.fsum`` of the level norms, inf where finite norms sum past the
    largest float (fsum raises OverflowError there)."""
    try:
        return math.fsum(norms.tolist())
    except OverflowError:
        return math.inf


def _normalized(proc: TreeProcess) -> bool:
    """Whether every edge probability is >= 0 and no node's children miss
    one by more than ``validate`` allows (``_child_sums_off``)."""
    probs = np.asarray(proc.columns.probs, dtype=float)[proc._children[0]]
    return bool((probs >= 0.0).all()) and not _child_sums_off(proc).any()


def equivalent(a: TreeProcess, b: TreeProcess, tol: float = 0.0) -> bool:
    """True iff the processes have adapted distance zero for every order, or,
    for a positive ``tol``, AW_1 at most ``tol``.  AW = 0 exactly when the
    canonical forms are equal, since equal states emit identical subtrees in
    rank order; values too far apart for a float cost are farther apart than
    any ``tol``.  AW_1 is not the smallest AW_p for depth T >= 2; what holds
    is AW_1 <= T**(1 - 1/p) * AW_p (Hoelder over the steps, then Jensen),
    with equality for two chains a constant distance apart.

    The verdict is decided in this order: with a positive ``tol``, a finite
    level marginals' bound L <= AW_1 (``_marginal_bound``) says "not
    equivalent" when L exceeds ``tol`` by more than its slack, on trees
    whose edge probabilities are >= 0 and sum to one as ``validate`` has it;
    equal forms give a finite L within the slack, and the solve could only
    agree.  Then equal canonical forms are equivalent, and with ``tol`` zero
    unequal ones are not.  An infinite L says "not equivalent" only now: a
    CDF that cancels only up to rounding, times an infinite gap, makes it
    infinite on equal forms too.  Otherwise, and when L is NaN, the backward
    induction on the canonical forms decides.
    """
    _check_shapes(a, b)
    _check_tolerance(tol)
    apart = False
    if tol > 0.0:
        for proc in (a, b):      # canonicalize's errors, in its order
            _check_finite(proc)
            proc.layout
        bound, slack = _marginal_bound(a, b)
        apart = bound - slack > tol and _normalized(a) and _normalized(b)
        if apart and bound < math.inf:
            return False
    ca, cb = canonicalize(a), canonicalize(b)
    same = ca == cb
    if same or tol == 0.0 or apart:
        return same
    try:
        return bicausal.aw_distance(ca, cb, 1.0)[0] <= tol
    except OverflowError:
        return False
