"""Scenario-tree representation of finitely supported filtered processes.

A process of depth T lives on a rooted tree: the root sits at time level 0
and carries no value, every node at level t >= 1 carries a real vector of
dimension ``value_dims[t-1]`` together with the probability of reaching it
from its parent, and all leaves sit at level T.  The tree structure itself
plays the role of the filtration: what is known at time t is exactly the
node reached at level t.

A tree is stored as the columns of its node list (``TreeProcess.columns``);
every computation reads one per-level array layout of it
(``TreeProcess.layout``), built from the columns on first use or handed
over by the code that built the tree.  ``TreeNode``s are a view, built only
when something asks for one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property, reduce
from itertools import chain, repeat
from typing import Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "TreeNode",
    "TreeLevel",
    "TreeColumns",
    "TreeProcess",
    "PathLaw",
    "ShapeMismatchError",
    "validate",
    "path_distance",
    "path_law",
    "quantize_paths",
    "chain_process",
    "build_process",
    "process_with_values",
    "tree_to_dict",
    "tree_from_dict",
]

# A node's children's edge probabilities must sum to one within this: a float
# sum of normalized weights misses one by a few 1e-16 per child, far below it,
# while a probability rounded to fewer than about 12 digits fails.
PROB_TOL = 1e-12


class ShapeMismatchError(ValueError):
    """Raised when two processes or paths disagree in depth or dimensions."""


class TreeNode(NamedTuple):
    """One entry of a tree's node list (``TreeProcess.nodes``)."""

    id: int
    parent: int | None
    time: int
    value: tuple[float, ...] | None
    prob: float


class TreeColumns(NamedTuple):
    """A tree's node list as columns, in node-list order.

    Ids, parents (``None`` at the root) and times are exact Python ints;
    numpy arrays hold positions and counts, never ids.  ``probs`` and
    ``values`` are read-only arrays of the numbers as given: float64 when
    every number is a float, else an object array of the numbers themselves
    (a library-built tree may carry ints, which its document writes as
    ints).  ``values`` concatenates every node's values and ``sizes`` counts
    them per node, -1 for no value, so a ragged tree is stored as it is and
    ``validate`` reports it.
    """

    ids: tuple[int, ...]
    parents: tuple[int | None, ...]
    times: tuple[int, ...]
    probs: np.ndarray
    values: np.ndarray
    sizes: np.ndarray


class TreeLevel(NamedTuple):
    """One level t of a tree's layout: its node ids and read-only arrays over them."""

    ids: tuple[int, ...]
    parent: np.ndarray  # position of the parent in level t - 1 (-1 at the root)
    bounds: np.ndarray  # node k's children are positions bounds[k]:bounds[k + 1] of level t + 1
    prob: np.ndarray    # edge probabilities
    values: np.ndarray  # one row per node, value_dims[t - 1] columns (none at the root)
    reach: np.ndarray   # probabilities of reaching the nodes from the root
    index: np.ndarray   # position of the nodes in the node list (the columns)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _number_array(numbers: Sequence) -> np.ndarray:
    """Numbers as a read-only array: float64 if all are floats, else the
    numbers themselves in an object array."""
    floats = set(map(type, numbers)) <= {float}
    return _read_only(np.array(numbers, dtype=float if floats else object))


def _int_array(items: Sequence) -> np.ndarray:
    """Integers as an int64 array, or as an object array of the items when
    int64 arithmetic on them could overflow (or they are not all ints)."""
    arr = np.array(items)
    if arr.dtype != np.int64 or (arr.size and (arr.min() < -2**62 or arr.max() > 2**62)):
        arr = np.array(items, dtype=object)
    return arr


def _segments(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Positions ``start[k]:start[k] + size[k]`` for every k, one after another."""
    return np.repeat(start - np.cumsum(size) + size, size) + np.arange(size.sum())


def _slices(items: list, size: np.ndarray):
    """``items`` cut into consecutive slices of ``size[k]`` items each, one
    at a time (an iterator, so that each slice is freed once used)."""
    end = np.cumsum(size).tolist()
    return map(items.__getitem__, map(slice, [0] + end[:-1], end))


def _segment_sums(x: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The float sum of each of the consecutive segments of ``size[k]``
    entries of ``x``, left to right from +0.0 as
    ``functools.reduce(operator.add, segment, 0.0)`` sums it, 0.0 for an
    empty segment: one ``np.cumsum`` along the rows of a matrix per distinct
    length.  (``np.add.reduce`` and ``reduceat`` sum pairwise from 9 terms on.)"""
    out = np.zeros(size.size)
    start = np.cumsum(size) - size
    for length in set(size.tolist()) - {0}:
        k = np.flatnonzero(size == length)
        out[k] = np.cumsum(x[start[k, None] + np.arange(length)], axis=1)[:, -1]
    return out + 0.0    # the sum from the first term is -0.0 only where all terms are, and +0.0 then


def _running_sums(x: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Every partial sum of each of the consecutive segments of ``size[k]``
    entries of ``x``, in place of its entries, each segment summed left to
    right from its first entry as ``_segment_sums`` sums it."""
    out = np.empty(x.size)
    start = np.cumsum(size) - size
    for length in set(size.tolist()) - {0}:
        at = start[size == length, None] + np.arange(length)
        out[at] = np.cumsum(x[at], axis=1)
    return out


def _columns(rows: Sequence[tuple]) -> TreeColumns:
    """The columns of a node list whose entries hold the ``TreeNode`` fields in order."""
    ids, parents, times, values, probs = zip(*rows) if rows else ((),) * 5
    sizes = np.array([-1 if v is None else len(v) for v in values], dtype=np.intp)
    return TreeColumns(ids, parents, times, _number_array(probs),
                       _number_array(list(chain.from_iterable(filter(None, values)))),
                       _read_only(sizes))


def _layout(ids: Sequence[tuple[int, ...]], parent: Sequence[np.ndarray], prob: Sequence[np.ndarray],
            values: Sequence[np.ndarray], index: Sequence[np.ndarray]) -> tuple[TreeLevel, ...]:
    """The layout from the ids, parent positions, edge probabilities, value
    rows and node-list positions of levels t = 0..T (``parent`` also of the
    nodes below T, none in a valid tree): bounds and reaches formed, arrays read-only."""
    reach, out = np.ones(1), []
    for t, n in enumerate(map(len, ids)):
        if t:
            reach = reach[parent[t]] * prob[t]
        level = TreeLevel(ids[t], parent[t], np.searchsorted(parent[t + 1], np.arange(n + 1)),
                          prob[t], values[t], reach, index[t])
        for arr in level[1:]:
            arr.flags.writeable = False
        out.append(level)
    return tuple(out)


class TreeProcess:
    """Immutable scenario tree stored as columns; all derived views are cached lazily.

    ``TreeProcess(depth, value_dims, nodes)`` keeps ``nodes`` as the node
    view and derives the columns on first use; the library builds trees
    from columns (and often a layout) instead, and builds their nodes only
    when asked.  ``nodes``, ``by_id``, ``children_map``, ``node()`` and
    ``children()`` are such views; ``level``, ``leaves``,
    ``leaf_ancestors`` and ``reach_prob`` are views of ``layout``.  Two
    trees are equal when their depth, value dims and columns are.
    """

    depth: int
    value_dims: tuple[int, ...]

    def __init__(self, depth: int, value_dims: tuple[int, ...], nodes: Sequence[TreeNode]):
        vars(self).update(depth=depth, value_dims=value_dims, nodes=tuple(nodes))

    @classmethod
    def _from_columns(cls, depth: int, value_dims: tuple[int, ...], columns: TreeColumns,
                      layout: tuple[TreeLevel, ...] | None = None) -> "TreeProcess":
        """The tree of these columns, taking over ``layout`` when given."""
        proc = cls.__new__(cls)
        vars(proc).update(depth=depth, value_dims=value_dims, columns=columns)
        if layout is not None:
            vars(proc)["layout"] = layout
        return proc

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, TreeProcess):
            return NotImplemented
        if self is other:
            return True
        a, b = self.columns, other.columns
        return (self.depth == other.depth and self.value_dims == other.value_dims
                and a.ids == b.ids and a.parents == b.parents and a.times == b.times
                and all(map(np.array_equal, a[3:], b[3:])))

    def __hash__(self):
        return hash((self.depth, self.value_dims, self.columns.ids))

    def __repr__(self):
        return f"TreeProcess(depth={self.depth!r}, value_dims={self.value_dims!r}, nodes={self.nodes!r})"

    @cached_property
    def columns(self) -> TreeColumns:
        return _columns(self.nodes)

    @cached_property
    def nodes(self) -> tuple[TreeNode, ...]:
        ids, parents, times, probs, values, sizes = self.columns
        vals = list(map(tuple, _slices(values.tolist(), np.maximum(sizes, 0))))
        for k in np.flatnonzero(sizes < 0).tolist():
            vals[k] = None
        # tuple.__new__ skips the Python-level TreeNode.__new__: same nodes, a third of the time
        return tuple(map(tuple.__new__, repeat(TreeNode), zip(ids, parents, times, vals, probs.tolist())))

    @cached_property
    def by_id(self) -> Mapping[int, TreeNode]:
        return dict(zip(self.columns.ids, self.nodes))

    @cached_property
    def children_map(self) -> Mapping[int, tuple[int, ...]]:
        ids, (kids, bounds) = self.columns.ids, self._children
        return dict(zip(ids, map(tuple, _slices(list(map(ids.__getitem__, kids.tolist())), np.diff(bounds)))))

    @cached_property
    def root_id(self) -> int:
        ids, parents = self.columns[:2]
        roots = parents.count(None)
        if roots != 1:
            raise ValueError(f"expected exactly one root, found {roots}")
        return ids[parents.index(None)]

    def children(self, node_id: int) -> tuple[int, ...]:
        return self.children_map[node_id]

    def node(self, node_id: int) -> TreeNode:
        return self.by_id[node_id]

    @cached_property
    def _index(self) -> Mapping[int, int]:
        """Node-list position of every id (the last one, for a repeated id)."""
        ids = self.columns.ids
        return dict(zip(ids, range(len(ids))))

    @cached_property
    def _parent_pos(self) -> np.ndarray:
        """Node-list position of every node's parent; -1 at the root and for
        an unknown parent."""
        index, parents = self._index, self.columns.parents
        return np.fromiter(map(index.get, parents, repeat(-1)), np.intp, len(parents))

    @cached_property
    def _children(self) -> tuple[np.ndarray, np.ndarray]:
        """Node-list positions of all children, grouped by parent in node-list
        order, siblings in node-list order; node k's children are entries
        ``bounds[k]:bounds[k + 1]``."""
        parent = self._parent_pos
        known = np.flatnonzero(parent >= 0)
        kids = known[np.argsort(parent[known], kind="stable")]
        return kids, np.searchsorted(parent[kids], np.arange(len(parent) + 1))

    @cached_property
    def layout(self) -> tuple[TreeLevel, ...]:
        """The per-level arrays of the tree, t = 0..T, built on first use.

        Level t lists its nodes with each parent's children contiguous:
        parents in level t - 1 order, siblings in node-list order.
        """
        cols = self.columns
        kids, first = self._children
        prob, values = np.asarray(cols.probs, dtype=float), np.asarray(cols.values, dtype=float)
        sizes = np.maximum(cols.sizes, 0)
        start = np.cumsum(sizes) - sizes
        members, parent = [np.array([self._index[self.root_id]])], [np.full(1, -1)]
        for _ in range(self.depth + 1):     # the children of levels 0..T; the last bound level T
            count = first[members[-1] + 1] - first[members[-1]]
            members.append(kids[_segments(first[members[-1]], count)])
            parent.append(np.repeat(np.arange(count.size), count))
        members.pop()
        # no level below the root, or a leaf above level T
        if self.depth < 1 or not np.diff(first)[np.concatenate(members[:-1])].all():
            raise ValueError(validate(self)[0])
        rows = [values[_segments(start[m], sizes[m])].reshape(m.size, -1) for m in members[1:]]
        return _layout([tuple(map(cols.ids.__getitem__, m.tolist())) for m in members], parent,
                       [prob[m] for m in members], [np.empty((1, 0)), *rows], members)

    def level(self, t: int) -> tuple[int, ...]:
        return self.layout[t].ids

    @cached_property
    def leaves(self) -> tuple[int, ...]:
        return self.layout[-1].ids

    @cached_property
    def leaf_index(self) -> Mapping[int, int]:
        """Position of every leaf in ``leaves``."""
        return {leaf: j for j, leaf in enumerate(self.leaves)}

    @cached_property
    def reach_prob(self) -> Mapping[int, float]:
        """Probability of reaching each node from the root."""
        return {i: r for level in self.layout for i, r in zip(level.ids, level.reach.tolist())}

    @cached_property
    def leaf_ancestors(self) -> tuple[np.ndarray, ...]:
        """Per level t = 0..T, the position in ``level(t)`` of the ancestor of
        every leaf, leaves in ``leaves`` order (read-only arrays)."""
        anc = np.arange(len(self.leaves))
        out = [anc]
        for level in self.layout[:0:-1]:
            anc = level.parent[anc]
            out.append(anc)
        for arr in out:
            arr.flags.writeable = False
        return tuple(reversed(out))


def _from_levels(value_dims: tuple[int, ...], parent: Sequence[np.ndarray],
                 prob: Sequence[np.ndarray], values: Sequence[np.ndarray]) -> TreeProcess:
    """The tree listed level by level from its level arrays, with its layout.

    For t = 1..T, ``parent[t - 1]`` holds the position in level t - 1 of the
    parent of every level-t node (non-decreasing, so each parent's children
    are contiguous), ``prob[t - 1]`` their edge probabilities and
    ``values[t - 1]`` their value rows.  Ids number the nodes in this
    order, the root 0.
    """
    counts = [1] + [len(k) for k in parent]
    first = np.cumsum([0] + counts).tolist()    # id of every level's first node
    ids = tuple(range(first[-1]))
    columns = TreeColumns(
        ids,
        tuple(chain([None], *((f + k).tolist() for f, k in zip(first, parent)))),
        tuple(chain.from_iterable(map(repeat, range(len(counts)), counts))),
        _read_only(np.concatenate([np.ones(1), *prob])),
        _read_only(np.concatenate([np.empty(0), *(v.reshape(-1) for v in values)])),
        _read_only(np.repeat([-1] + [v.shape[1] for v in values], counts)))
    layout = _layout([ids[a:b] for a, b in zip(first, first[1:])],
                     [np.full(1, -1), *parent, np.empty(0, dtype=np.intp)], [np.ones(1), *prob],
                     [np.empty((1, 0)), *values], list(map(np.arange, first, first[1:])))
    return TreeProcess._from_columns(len(parent), tuple(value_dims), columns, layout)


@dataclass(frozen=True)
class PathLaw:
    """Finitely supported law on the path space; one atom per scenario."""

    atoms: tuple[tuple[tuple[tuple[float, ...], ...], float], ...]


def _report(rules) -> list[str]:
    """The messages of a rule table, one ``(mask, message)`` entry per rule,
    ``message(k)`` wording the rule's failure at node-list position k: nodes
    in node-list order, each node's messages in table order."""
    hits = np.nonzero(np.array([mask for mask, _ in rules]).T)
    return [rules[r][1](k) for k, r in zip(*(h.tolist() for h in hits))]


def _non_finite_prob(columns: TreeColumns, k: int) -> str:
    return f"node {columns.ids[k]} has non-finite edge probability {columns.probs.item(k)}"


def _non_finite_value(columns: TreeColumns, start: np.ndarray, k: int) -> str:
    ids, _, _, _, values, sizes = columns
    return f"node {ids[k]} has non-finite value {tuple(values[start[k]:start[k] + sizes[k]].tolist())}"


def _non_finite_values(columns: TreeColumns) -> tuple[np.ndarray, np.ndarray]:
    """Per node, whether one of its values is not finite, and the position
    of its first value in ``columns.values``."""
    size = np.maximum(columns.sizes, 0)
    bad = np.zeros(size.size, dtype=bool)
    bad[np.repeat(np.arange(size.size), size)[~np.isfinite(np.asarray(columns.values, dtype=float))]] = True
    return bad, np.cumsum(size) - size


def _check_finite(proc: TreeProcess) -> None:
    """Raise ValueError for the first node in node-list order, the root
    aside, with a non-finite edge probability or value, worded as
    ``validate`` words it."""
    cols = proc.columns
    bad_prob = ~np.isfinite(np.asarray(cols.probs, dtype=float))
    if bad_prob.any() or not np.isfinite(np.asarray(cols.values, dtype=float)).all():
        bad_prob[proc._index[proc.root_id]] = False
        bad_value, start = _non_finite_values(cols)
        if faults := _report([(bad_prob, lambda k: _non_finite_prob(cols, k)),
                              (bad_value, lambda k: _non_finite_value(cols, start, k))]):
            raise ValueError(faults[0])


def _child_sums_off(proc: TreeProcess) -> np.ndarray:
    """Per node in node-list order, whether it has children whose edge
    probabilities, summed in sibling order (``_segment_sums``), miss one by
    more than PROB_TOL; a NaN sum does not miss."""
    kids, bounds = proc._children
    count = np.diff(bounds)
    sums = _segment_sums(np.asarray(proc.columns.probs, dtype=float)[kids], count)
    return (count > 0) & (np.abs(sums - 1.0) > PROB_TOL)


def validate(proc: TreeProcess) -> list[str]:
    """Check every structural invariant; returns [] iff the tree is valid.

    After the root, depth and value-dims checks, each rule on the nodes is
    one mask over the columns and one message worded from them: first the
    rules on a node's parent, level, probability and value, then, in a
    second pass, those on its children.  No node view is built.  A node's
    children's probabilities are summed in sibling order (node-list order),
    left to right from +0.0 (``_segment_sums``), on any interpreter; Python
    3.12's ``sum`` adds floats with compensation, and is not used.
    """
    ids, parents, times, probs, _, sizes = proc.columns
    depth, dims = proc.depth, proc.value_dims
    roots = parents.count(None)
    if roots != 1:
        return [f"expected exactly one root, found {roots}"]
    r = parents.index(None)
    violations: list[str] = []
    if times[r] != 0:
        violations.append(f"root node {ids[r]} is at level {times[r]}, expected 0")
    if sizes[r] >= 0:
        violations.append(f"root node {ids[r]} carries a value")
    if len(dims) != depth:
        violations.append(f"value_dims has {len(dims)} entries for depth {depth}")
        return violations
    if depth < 1:
        violations.append(f"depth {depth} < 1")
    if any(d < 1 for d in dims):
        violations.append(f"value_dims {list(dims)} has an entry below 1")
        return violations
    n = len(ids)
    if len(proc._index) != n:
        violations.append("duplicate node ids")
        return violations

    ppos, (kids, bounds) = proc._parent_pos, proc._children
    time, dim = _int_array(times), _int_array(dims)
    prob = np.asarray(probs, dtype=float)
    known = ppos >= 0
    unknown = ~known
    unknown[r] = False
    # the rules after a parent's or a level's fault do not apply to the node
    inside = known & (time >= 1) & (time <= depth)
    want = np.full(n, -2, dtype=dim.dtype)
    want[inside] = dim[(time[inside] - 1).astype(np.intp)]
    bad_value, start = _non_finite_values(proc.columns)
    violations += _report([
        (unknown, lambda k: f"node {ids[k]} has unknown parent {parents[k]}"),
        (known & (time[ppos] + 1 != time),
         lambda k: f"node {ids[k]} at level {times[k]} under parent at level {times[ppos[k]]}"),
        (known & ~np.isfinite(prob), lambda k: _non_finite_prob(proc.columns, k)),
        (known & np.isfinite(prob) & ~(prob > 0.0),
         lambda k: f"node {ids[k]} has non-positive edge probability {probs.item(k)}"),
        (known & ~inside, lambda k: f"node {ids[k]} at level {times[k]} outside 1..{depth}"),
        (inside & (sizes != want),
         lambda k: f"node {ids[k]} value has dim {'none' if sizes[k] < 0 else sizes[k]}, expected {want[k]}"),
        (inside & (sizes == want) & bad_value,
         lambda k: _non_finite_value(proc.columns, start, k)),
    ])

    count = np.diff(bounds)
    interior = time < depth
    violations += _report([
        (interior & (count == 0), lambda k: f"node {ids[k]} at level {times[k]} is a leaf, expected depth {depth}"),
        (interior & _child_sums_off(proc),
         # worded from the numbers as given, so that int probabilities sum to an int
         lambda k: f"children of node {ids[k]} have probability sum "
                   f"{reduce(operator.add, probs[kids[bounds[k]:bounds[k + 1]]].tolist(), 0)!r}"),
        (~interior & (count > 0), lambda k: f"node {ids[k]} at terminal level has children"),
    ])
    return violations


def _check_order(p: float) -> None:
    """Reject an order that AW_p does not take: p must be a finite number >= 1."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"order p must be a finite number >= 1, got {p}")


def _check_tolerance(tol: float, name: str = "tol") -> None:
    """Reject a tolerance that is not a finite number >= 0."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} must be a finite tolerance >= 0, got {tol}")


def _check_shapes(x: TreeProcess, y: TreeProcess) -> None:
    """Reject two processes that disagree in depth or value dims."""
    if x.depth != y.depth or x.value_dims != y.value_dims:
        raise ShapeMismatchError(
            f"shape mismatch: depth {x.depth}/{y.depth}, dims {x.value_dims}/{y.value_dims}"
        )


def _norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norms sqrt(sum d**2) over the last axis of ``d``, with d
    first scaled by an exact power of two where its squares would leave the
    normal floats: a norm of 1e-200 is 1e-200, and others keep their bits."""
    with np.errstate(over="ignore"):
        norm = np.sqrt((d ** 2).sum(axis=-1))
    # in this range no square overflows, and one that underflows moves the sum by under 2**-70
    odd = ~((norm > 2.0 ** -500) & (norm < 2.0 ** 500))   # zero or NaN too
    if odd.any():
        e = np.frexp(np.abs(d[odd]).max(axis=-1, initial=0.0))[1]
        norm[odd] = np.ldexp(np.sqrt((np.ldexp(d[odd], -e[:, None]) ** 2).sum(axis=-1)), e)
    return norm


def path_distance(x: Sequence[Sequence[float]], y: Sequence[Sequence[float]], p: float) -> float:
    """p-metric between two paths: (sum_t |x_t - y_t|_2^p)^(1/p)."""
    _check_order(p)
    if len(x) != len(y):
        raise ShapeMismatchError(f"paths have {len(x)} and {len(y)} steps")
    total = 0.0
    for xt, yt in zip(x, y):
        if len(xt) != len(yt):
            raise ShapeMismatchError(f"step dims {len(xt)} != {len(yt)}")
        total += float(_norms(np.subtract(xt, yt, dtype=float)[None])[0]) ** p
    return total ** (1.0 / p)


def path_law(proc: TreeProcess) -> PathLaw:
    """Forget the filtration: one atom per leaf, its values along the
    root-to-leaf path (one per level 1..T) with the product mass."""
    steps = [map(tuple, level.values[anc].tolist())
             for level, anc in zip(proc.layout[1:], proc.leaf_ancestors[1:])]
    return PathLaw(atoms=tuple(zip(zip(*steps), proc.layout[-1].reach.tolist())))


def chain_process(values: Sequence[Sequence[float] | float]) -> TreeProcess:
    """Deterministic process following a single path."""
    branches = []
    for v in reversed(values):
        branches = [(1.0, v, branches)]
    return build_process([len(v) if isinstance(v, (tuple, list)) else 1 for v in values], branches)


def build_process(value_dims: Sequence[int], branches) -> TreeProcess:
    """Build a process from a nested description.

    ``branches`` is a list of ``(prob, value, children)`` triples hanging off
    the root; ``children`` recursively has the same shape and is empty at the
    terminal level.  Node ids are assigned in depth-first preorder, by a walk
    with an explicit stack that fills the columns of the node list.
    """
    rows = [(0, None, 0, None, 1.0)]
    stack = [(0, 1, branch) for branch in reversed(list(branches))]
    while stack:
        parent, t, (prob, value, kids) = stack.pop()
        vec = tuple(value) if isinstance(value, (tuple, list)) else (float(value),)
        rows.append((len(rows), parent, t, vec, float(prob)))
        stack += [(rows[-1][0], t + 1, branch) for branch in reversed(list(kids))]
    return TreeProcess._from_columns(len(value_dims), tuple(value_dims), _columns(rows))


class _DictView(Mapping):
    """A read-only Mapping over arrays, whose dict ``_build`` makes from them
    on first access."""

    def _build(self) -> dict:
        raise NotImplementedError

    @cached_property
    def _dict(self) -> dict:
        return self._build()

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self) -> int:
        return len(self._dict)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._dict!r})"


class _LevelValues(_DictView):
    """Values on the non-root nodes of a tree, kept one array per level.

    ``levels[t - 1]`` is a read-only float array with one row per node of
    ``proc.level(t)``, t = 1..T.  ``values`` is such a sequence of arrays,
    a ``_LevelValues`` over the same layout (shared, not copied), or a
    Mapping from node id to value.  As a Mapping it maps node ids to value
    tuples, keys in layout order; that dict is built on first access.
    """

    def __init__(self, proc: TreeProcess, values):
        self.ids = tuple(level.ids for level in proc.layout[1:])
        if isinstance(values, _LevelValues) and values.ids == self.ids:
            self.levels = values.levels
            return
        if isinstance(values, Mapping):
            try:
                values = [list(map(values.__getitem__, ids)) for ids in self.ids]
            except KeyError as exc:
                raise ValueError(f"no value for node {exc.args[0]!r}") from None
        if len(values) != len(self.ids):
            raise ValueError(f"{len(values)} value levels for a tree of depth {len(self.ids)}")
        levels = []
        for t, (ids, rows) in enumerate(zip(self.ids, values), start=1):
            arr = np.array(rows, dtype=float)
            if arr.ndim != 2 or len(arr) != len(ids):
                raise ValueError(f"level {t} values have shape {arr.shape}, "
                                 f"expected one row per each of its {len(ids)} nodes")
            arr.flags.writeable = False
            levels.append(arr)
        self.levels = tuple(levels)

    def _build(self) -> dict[int, tuple[float, ...]]:
        rows = chain.from_iterable(map(tuple, arr.tolist()) for arr in self.levels)
        return dict(zip(chain.from_iterable(self.ids), rows))

    def __len__(self) -> int:
        return sum(map(len, self.ids))


def process_with_values(proc: TreeProcess, values) -> TreeProcess:
    """Same tree and probabilities, a new value labelling.

    ``values`` maps every non-root node id to its value, or holds one array
    per level t = 1..T with a row per node of ``proc.level(t)`` (see
    ``_LevelValues``); the value dims are those of the new values.  The new
    tree shares ``proc``'s columns but the values (node order, ids, parents,
    times, probabilities) and takes over its layout, with the new value
    arrays swapped in.
    """
    new = _LevelValues(proc, values)
    layout, cols = proc.layout, proc.columns
    index = np.concatenate([level.index for level in layout[1:]])
    size = np.repeat([arr.shape[1] for arr in new.levels], list(map(len, new.levels)))
    sizes = np.full(len(cols.ids), -1)
    sizes[index] = size
    # every node's first value in the new level arrays, one after another
    start = np.zeros(len(cols.ids), dtype=np.intp)
    start[index] = np.cumsum(size) - size
    flat = np.concatenate([np.empty(0), *(arr.reshape(-1) for arr in new.levels)])
    columns = cols._replace(values=_read_only(flat[_segments(start, np.maximum(sizes, 0))]),
                            sizes=_read_only(sizes))
    return TreeProcess._from_columns(
        proc.depth, tuple(arr.shape[1] for arr in new.levels), columns,
        layout[:1] + tuple(level._replace(values=arr) for level, arr in zip(layout[1:], new.levels)))


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Plain Lloyd iterations with rng-seeded init; returns cluster labels."""
    uniq = np.unique(points, axis=0)
    k = min(k, len(uniq))
    if k == len(uniq):
        centers = uniq.astype(float)
    else:
        idx = rng.choice(len(uniq), size=k, replace=False)
        centers = uniq[np.sort(idx)].astype(float)
    labels = np.zeros(len(points), dtype=int)
    for _ in range(50):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if (new_labels == labels).all() and _ > 0:
            break
        labels = new_labels
        for j in range(k):
            members = points[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return labels


def quantize_paths(samples: Sequence[Sequence[Sequence[float] | float]],
                   branching: Sequence[int], seed: int = 0) -> TreeProcess:
    """Empirical scenario tree by per-level clustering of sample-path prefixes.

    Samples sharing a node at level t-1 are clustered on their step-t values
    into at most ``branching[t-1]`` groups; each non-empty group becomes a
    child carrying the group centroid and the empirical frequency.
    Deterministic for a fixed seed.
    """
    if not samples:
        raise ValueError("no sample paths given")
    depth = len(samples[0])
    if depth == 0:
        raise ValueError("sample paths must have at least one step")
    if len(branching) != depth:
        raise ValueError(f"branching has {len(branching)} entries for depth {depth}")
    if any(b < 1 for b in branching):
        raise ValueError("branching factors must be >= 1")
    paths = []
    for s in samples:
        if len(s) != depth:
            raise ValueError("sample paths have unequal depth")
        paths.append([np.atleast_1d(np.asarray(step, dtype=float)) for step in s])
    dims = tuple(len(step) for step in paths[0])
    if 0 in dims:
        raise ValueError("sample steps must hold at least one value")
    for s in paths:
        if tuple(len(step) for step in s) != dims:
            raise ValueError("sample paths have unequal step dimensions")
        if not all(np.isfinite(step).all() for step in s):
            raise ValueError("sample values must be finite")

    rng = np.random.default_rng(seed)
    branches: list = []
    # a depth-first walk: (level t, the samples of a node at level t - 1, its branches to fill)
    stack = [(1, list(range(len(paths))), branches)]
    try:
        with np.errstate(over="raise", invalid="raise"):
            while stack:
                t, members, out = stack.pop()
                labels = _kmeans(np.array([paths[i][t - 1] for i in members]), branching[t - 1], rng)
                groups: dict[int, list[int]] = {}
                for i, lab in zip(members, labels):
                    groups.setdefault(int(lab), []).append(i)
                # sort children by centroid for a stable layout
                entries = sorted(((tuple(np.array([paths[i][t - 1] for i in grp]).mean(axis=0).tolist()), grp)
                                  for grp in groups.values()), key=lambda e: e[0])
                kids = [(len(grp) / len(members), centroid, []) for centroid, grp in entries]
                out += kids
                if t < depth:
                    # last child pushed first, so the first child's subtree is clustered next
                    stack += [(t + 1, grp, sub) for (_, grp), (_, _, sub) in zip(entries[::-1], kids[::-1])]
    except FloatingPointError as exc:
        raise OverflowError(f"sample values too far apart to cluster: {exc}") from None
    return build_process(dims, branches)


def tree_to_dict(proc: TreeProcess) -> dict:
    """JSON-ready form of a process."""
    return {
        "depth": proc.depth,
        "value_dims": list(proc.value_dims),
        "nodes": [
            {
                "id": n.id,
                "parent": n.parent,
                "time": n.time,
                "value": None if n.value is None else list(n.value),
                "prob": n.prob,
            }
            for n in proc.nodes
        ],
    }


def _int_field(v) -> int:
    """A document's integer field: what ``operator.index`` takes, but no bool."""
    if isinstance(v, bool) or not hasattr(v, "__index__"):
        raise TypeError(f"expected an integer, got {v!r}")
    return operator.index(v)


def _float_field(v) -> float:
    """A document's number field as a float: ints and floats, no strings or bools."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def _int_fields(items: list, nullable: bool = False) -> list:
    """``_int_field`` over a list, ``None`` kept where ``nullable``; a list of
    plain ints comes back as it is."""
    if set(map(type, items)) <= ({int, type(None)} if nullable else {int}):
        return items
    return [v if v is None and nullable else _int_field(v) for v in items]


def _float_fields(items: list) -> list:
    """``_float_field`` over a list; a list of plain floats comes back as it is."""
    if set(map(type, items)) <= {float}:
        return items
    return [_float_field(v) for v in items]


def tree_from_dict(data: dict) -> TreeProcess:
    """Inverse of :func:`tree_to_dict`; raises ValueError on malformed input,
    numbers of the wrong type included.  Fills the columns from the
    document's lists."""
    try:
        depth = _int_field(data["depth"])
        dims = tuple(_int_fields(list(data["value_dims"])))
        raw = data["nodes"]
        ids = tuple(_int_fields([n["id"] for n in raw]))
        parents = tuple(_int_fields([n["parent"] for n in raw], nullable=True))
        times = tuple(_int_fields([n["time"] for n in raw]))
        values = [n["value"] for n in raw]
        flat = _float_fields(list(chain.from_iterable(v for v in values if v is not None)))
        sizes = [-1 if v is None else len(v) for v in values]
        probs = _float_fields([n["prob"] for n in raw])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed tree document: {exc}") from exc
    columns = TreeColumns(ids, parents, times, _read_only(np.array(probs, dtype=float)),
                          _read_only(np.array(flat, dtype=float)),
                          _read_only(np.array(sizes, dtype=np.intp)))
    return TreeProcess._from_columns(depth, dims, columns)
