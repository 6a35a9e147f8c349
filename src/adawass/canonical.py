"""Information process, canonical representatives, and equivalence testing.

Every node at level t of a scenario tree determines an information state:
its value at time t together with the conditional law of the next-step
information state.  Two trees describe the same filtered process exactly
when their level-1 information laws coincide, and merging siblings with
equal states yields the minimal representative of the equivalence class.

One builder computes the states a level at a time from the leaves up,
merging siblings as it goes; the only thing a tolerance changes is the
comparison ``_close`` that decides when two states are the same.  States
nest one level per time step, so comparing them and ``_branches`` recurse
as deep as the tree; a tree too deep for the recursion limit trips the size guard.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .bicausal import SizeGuardError
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


def _close(a: InfoState, b: InfoState, tol: float) -> bool:
    """Whether two states count as the same: exact equality when ``tol`` <= 0,
    otherwise values and masses agreeing componentwise within ``tol``."""
    if tol <= 0.0:
        return a == b
    (va, la), (vb, lb) = a, b
    if len(va) != len(vb) or any(abs(x - y) > tol for x, y in zip(va, vb)):
        return False
    if la is None or lb is None:
        return la is lb
    return len(la) == len(lb) and all(
        abs(qa - qb) <= tol and _close(sa, sb, tol) for (sa, qa), (sb, qb) in zip(la, lb)
    )


def _merge(entries: list[tuple[InfoState, float]], tol: float) -> tuple[tuple[InfoState, float], ...]:
    """Group close states greedily in node-list order; the first state of a group
    represents it and the group's masses are summed in sorted order."""
    groups: list[tuple[InfoState, list[float]]] = []
    for state, q in entries:
        for rep, qs in groups:
            if _close(rep, state, tol):
                qs.append(q)
                break
        else:
            groups.append((state, [q]))
    merged = [(rep, sum(sorted(qs))) for rep, qs in groups]
    # siblings share a level and are distinct and finite (validate rejects NaN),
    # so the tuple order is total here and never compares None with a law
    merged.sort(key=lambda e: e[0])
    return tuple(merged)


def _law(proc: TreeProcess, tol: float,
         states: dict[int, InfoState] | None = None) -> tuple[tuple[InfoState, float], ...]:
    """Merged law of the root's children's states, built from the layout a level at
    a time from the leaves up (a node's children: its ``bounds`` slice of the level
    below); records every node's state in ``states`` when given."""
    laws = [None] * len(proc.layout[-1].ids)
    for above, level in zip(proc.layout[-2::-1], proc.layout[:0:-1]):
        level_states = list(map(InfoState, map(tuple, level.values.tolist()), laws))
        if states is not None:
            states.update(zip(level.ids, level_states))
        entries = list(zip(level_states, level.prob.tolist()))
        bounds = above.bounds.tolist()
        laws = [_merge(entries[a:b], tol) if a < b else None for a, b in zip(bounds, bounds[1:])]
    return laws[0] or ()


def _depth_guarded(fn):
    """``fn`` with the ``RecursionError`` of a tree too deep for the
    recursive comparisons and ``_branches`` raised as a ``SizeGuardError`` that
    names the depth of its first argument."""
    @functools.wraps(fn)
    def guarded(proc: TreeProcess, *args, **kwargs):
        try:
            return fn(proc, *args, **kwargs)
        except RecursionError:
            raise SizeGuardError(f"tree of depth {proc.depth} is too deep for canonical forms "
                                 "(Python's recursion limit)") from None
    return guarded


@_depth_guarded
def information_process(proc: TreeProcess) -> dict[int, InfoState]:
    """Information state of every node at level >= 1.

    Terminal nodes carry their value; an interior node carries its value and
    the edge-probability mixture of its children's states, with identical
    children merged by summing mass.
    """
    states: dict[int, InfoState] = {}
    _law(proc, 0.0, states)
    return states


def _branches(law: tuple[tuple[InfoState, float], ...]) -> list:
    """The ``build_process`` branches of the tree whose level-1 information law is ``law``."""
    return [(prob, state.value, _branches(state.law or ())) for state, prob in law]


@_depth_guarded
def canonicalize(proc: TreeProcess, tol: float = 0.0) -> TreeProcess:
    """Minimal representative: siblings with equal information states merged.

    With ``tol`` zero the merge uses exact equality of states and the result
    is idempotent node-for-node.  A positive ``tol`` merges states whose
    values and probabilities agree componentwise within ``tol``, greedily in
    node-list order with the first node winning.
    """
    _check_tolerance(tol)
    return build_process(proc.value_dims, _branches(_law(proc, tol)))


@_depth_guarded
def equivalent(a: TreeProcess, b: TreeProcess, tol: float = 0.0) -> bool:
    """True iff the two processes have adapted distance zero for every order.

    Tested as equality of the laws of the time-1 information states, i.e.
    isomorphism of canonical forms (values and masses within ``tol`` when
    positive).
    """
    _check_shapes(a, b)
    _check_tolerance(tol)
    # compare the laws as the laws of two value-less root states
    root_a = InfoState((), _law(a, tol))
    root_b = InfoState((), _law(b, tol))
    return _close(root_a, root_b, tol)
