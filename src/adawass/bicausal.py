"""Adapted Wasserstein distance and bicausal couplings on scenario trees.

Two independent routes compute the same optimum.  The main solver runs a
backward induction over pairs of tree nodes, solving one small transport
problem per pair; this is exact because bicausal couplings of tree-filtered
processes factorize into successive conditional couplings.  It assembles
the costs of a tree level at a time and hands the level's problems to
``discrete_ot._solve_level``.  A plan keeps its nodewise kernels as one
matrix per level over the children of both trees (``_LevelKernels``).  One
level step expands node tuples through such kernels: ``glue`` composes a
chain's plans with it, and the path-pair masses are its two-process case.
Couplings are arrays from end to end: per process the leaf positions of the
listed leaf tuples, and their masses (``_LeafMasses``); the tuple-keyed
mappings of plans and glued couplings are views built on first access.
The oracle solves one linear program over path-pair masses whose
causality conditions enter as linear product identities against the fixed
marginal laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .discrete_ot import (  # noqa: F401  (solve_transport: perfbench/tracer.py wraps it here)
    MARGINAL_TOL,
    _solve_level,
    lp_solve,
    solve_transport,
)
from .trees import (
    TreeProcess,
    _check_order,
    _check_shapes,
    _DictView,
    _from_levels,
    _int_array,
    _norms,
    _slices,
    process_with_values,
)

__all__ = [
    "BicausalPlan",
    "MulticausalCoupling",
    "SizeGuardError",
    "aw_distance",
    "aw_distance_lp",
    "check_bicausal",
    "check_multicausal",
    "glue",
    "factor_plan",
]

# Absolute slack on the causality identities of check_bicausal and
# check_multicausal, differences of two products of masses in [0, 1]: their
# rounding, and that of the cylinder sums behind them, is near 1e-16 per term,
# so the solver's plans pass with room to spare, while a plan that anticipates
# by a mass product above 1e-9 fails.
CAUSALITY_TOL = 1e-9
# Default size guard on the product trees that glue builds.
MAX_PRODUCT_LEAVES = 100_000
# Path-pair masses of an LP oracle solution at or below this are dropped as
# pivoting residue: the dense tableau leaves rounding near 1e-16 per pivot on
# cells that should be zero.  Dropping them moves a marginal, a sum over one
# row or column of the plan, by at most its length times 1e-13, far below
# MARGINAL_TOL for the plans the oracle can solve.
_PRUNE = 1e-13


class SizeGuardError(RuntimeError):
    """A product-space construction would exceed the configured size limit."""


def _pth_root(cost: float, p: float) -> float:
    """A plan's value from its cost; a negative cost (rounding, negative masses) counts as zero."""
    return max(cost, 0.0) ** (1.0 / p)


class _LeafMasses(_DictView):
    """Masses on tuples of leaves of ``procs``, kept as arrays in listing
    order: ``leaf[i]`` holds the position in ``procs[i].leaves`` of every
    tuple's i-th leaf, ``mass`` the masses (read-only).  As a Mapping it maps
    leaf-id tuples to masses, keys in listing order; that dict is built on
    first access."""

    def __init__(self, procs: Sequence[TreeProcess], leaf: Sequence[np.ndarray], mass: np.ndarray):
        for arr in (*leaf, mass):
            arr.flags.writeable = False
        self.procs, self.leaf, self.mass = tuple(procs), tuple(leaf), mass

    @classmethod
    def of(cls, procs: Sequence[TreeProcess], masses: Mapping[tuple[int, ...], float]) -> "_LeafMasses":
        """``masses`` on leaf tuples of ``procs``: a ``_LeafMasses`` over these
        trees as it is, any other Mapping converted once."""
        if isinstance(masses, cls) and masses.procs == tuple(procs):
            return masses
        keys = list(masses)
        ids = [[key[f] for key in keys] for f in range(len(procs))]
        return cls(procs, _leaf_positions(procs, ids), np.fromiter(masses.values(), float, len(keys)))

    def _build(self) -> dict[tuple[int, ...], float]:
        ids = [map(proc.leaves.__getitem__, pos.tolist()) for proc, pos in zip(self.procs, self.leaf)]
        return dict(zip(zip(*ids), self.mass.tolist()))

    def __len__(self) -> int:
        return self.mass.size


def _leaf_positions(procs: Sequence[TreeProcess], ids: Sequence) -> list[np.ndarray]:
    """Per process, the position in ``procs[i].leaves`` of every id in the
    list or array ``ids[i]``, found by one search among the sorted leaf ids;
    a ValueError names the first id, process by process in listing order,
    that is not a leaf."""
    out = []
    for proc, wanted in zip(procs, ids):
        leaves = _int_array(proc.leaves)
        order = np.argsort(leaves, kind="stable")
        known, query = leaves[order], _int_array(wanted)
        try:
            at = np.searchsorted(known, query).clip(max=known.size - 1)
            found = known[at] == query
        except TypeError:   # a caller's key that does not compare with ints is no leaf
            found = np.fromiter(map(proc.leaf_index.__contains__, query.tolist()), bool, query.size)
        if not found.all():
            raise ValueError(f"plan lists a pair with a non-leaf node {query[~found][:1].tolist()[0]!r}")
        out.append(order[at])
    return out


@dataclass(frozen=True)
class BicausalPlan:
    """Coupling of two tree processes, stored as path-pair masses.

    ``pair_masses`` maps (x leaf, y leaf) to mass; it is a ``_LeafMasses``,
    and a Mapping handed to the constructor is converted to one.
    Solver-built plans additionally carry the nodewise kernels: for every
    node pair with positive reachable mass, the joint transition over the
    two children sets.  Plans built from raw masses derive kernels on demand
    through cylinder conditioning, which is meaningful only when the plan is
    bicausal.  Either way the kernels are a ``_LevelKernels``.
    """

    x: TreeProcess
    y: TreeProcess
    p: float
    pair_masses: Mapping[tuple[int, int], float]
    value: float
    kernels: _LevelKernels | None = None

    def __post_init__(self):
        object.__setattr__(self, "pair_masses", _LeafMasses.of((self.x, self.y), self.pair_masses))

    @classmethod
    def from_pair_masses(cls, x: TreeProcess, y: TreeProcess, p: float,
                         masses: Mapping[tuple[int, int], float]) -> "BicausalPlan":
        _check_order(p)
        _check_shapes(x, y)
        masses = _LeafMasses.of((x, y), masses)
        weighted = masses.mass * _path_costs(x, y, p, *masses.leaf)
        # summed in listing order, as a running total
        cost = float(np.cumsum(weighted)[-1]) if weighted.size else 0.0
        return cls(x=x, y=y, p=p, pair_masses=masses, value=_pth_root(cost, p))

    @classmethod
    def product(cls, x: TreeProcess, y: TreeProcess, p: float) -> "BicausalPlan":
        """Independent coupling of the two path laws; always bicausal."""
        mu, nu = x.layout[-1].reach, y.layout[-1].reach
        i, j = np.divmod(np.arange(mu.size * nu.size), nu.size)
        return cls.from_pair_masses(x, y, p, _LeafMasses((x, y), (i, j), mu[i] * nu[j]))

    def matrix(self) -> np.ndarray:
        m = np.zeros((len(self.x.leaves), len(self.y.leaves)))
        m[self.pair_masses.leaf] = self.pair_masses.mass
        return m

    def effective_kernels(self) -> _LevelKernels:
        """Stored kernels, or kernels recovered from cylinder masses."""
        if self.kernels is not None:
            return self.kernels
        return _LevelKernels(self.x, self.y, _levels_from_masses(self))


def _step_costs(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """One-step costs |a - b|_2^p of the p-metric, over the last axis of two
    value arrays (norms as in ``trees._norms``); a cost that overflows is
    inf, without a warning."""
    with np.errstate(over="ignore"):
        return _norms(a - b) ** p


def _path_costs(x: TreeProcess, y: TreeProcess, p: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Costs of the leaf pairs (x.leaves[i], y.leaves[j]), broadcast over i and j.

    The step costs |x_t - y_t|_2^p are added from the first step on.
    """
    total = 0.0
    for t in range(1, x.depth + 1):
        vx = x.layout[t].values[x.leaf_ancestors[t]]
        vy = y.layout[t].values[y.leaf_ancestors[t]]
        total = total + _step_costs(vx[i], vy[j], p)
    return total


def _levels_from_masses(plan: BicausalPlan):
    """Kernel levels of a plan from its cylinder masses: per level, the mass
    of every node pair summed over the leaf pairs below it in listing order;
    the reachable pairs are those of positive mass, row-major, and each child
    pair's mass is divided by its parent pair's mass."""
    x, y = plan.x, plan.y
    (i, j), m = plan.pair_masses.leaf, plan.pair_masses.mass
    cyl = []
    for t in range(x.depth + 1):
        nx, ny = len(x.level(t)), len(y.level(t))
        cell = x.leaf_ancestors[t][i] * ny + y.leaf_ancestors[t][j]
        cyl.append(np.bincount(cell, weights=m, minlength=nx * ny).reshape(nx, ny))
    levels = []
    for t in range(x.depth):
        parent = cyl[t][x.layout[t + 1].parent[:, None], y.layout[t + 1].parent]
        kernel = np.divide(cyl[t + 1], parent, out=np.zeros_like(parent), where=parent > 0.0)
        levels.append((*np.nonzero(cyl[t] > 0.0), kernel))
    return levels


def _expand(x0: np.ndarray, x1: np.ndarray, y0: np.ndarray, y1: np.ndarray):
    """The cells of the blocks ``[x0[k]:x1[k], y0[k]:y1[k]]``, block after
    block, each row-major: every cell's block k, row and column."""
    ky = y1 - y0
    cells = (x1 - x0) * ky
    k = np.arange(cells.size).repeat(cells)
    i, j = np.divmod(np.arange(k.size) - (cells.cumsum() - cells).repeat(cells), ky[k])
    return k, x0[k] + i, y0[k] + j


class _LevelKernels(_DictView):
    """The nodewise kernels of a plan, read-only and lazy.

    ``levels[t]`` is ``(px, py, kernel)``: the level-t positions of the
    reachable parent pairs, in key order, and a read-only matrix over the
    children, ``len(x.level(t + 1))`` by ``len(y.level(t + 1))``, in which
    each reachable pair's children block is its kernel.  The dict of
    ``(cx, cy, block)`` entries, level by level, is built on first access.
    """

    def __init__(self, x: TreeProcess, y: TreeProcess, levels):
        for _, _, kernel in levels:
            kernel.flags.writeable = False
        self._trees = (x, y)
        self.levels = tuple(levels)

    def _build(self) -> dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...], np.ndarray]]:
        x, y = self._trees
        out = {}
        for t, (px, py, kernel) in enumerate(self.levels):
            ids_x, ids_y, kids_x, kids_y = x.level(t), y.level(t), x.level(t + 1), y.level(t + 1)
            bx, by = x.layout[t].bounds.tolist(), y.layout[t].bounds.tolist()
            for a, b in zip(px.tolist(), py.tolist()):
                sx, sy = slice(bx[a], bx[a + 1]), slice(by[b], by[b + 1])
                out[(ids_x[a], ids_y[b])] = (kids_x[sx], kids_y[sy], kernel[sx, sy])
        return out


def aw_distance(x: TreeProcess, y: TreeProcess, p: float) -> tuple[float, BicausalPlan]:
    """Adapted Wasserstein distance of order p with an optimal bicausal plan.

    Backward induction: at each pair of nodes the child distributions are
    coupled optimally against the one-step cost plus the continuation value;
    the root value is the p-th power of the distance.  The work runs a level
    at a time, on cost and value matrices over all node pairs of the level,
    each level one call of the level solve of ``discrete_ot``, which starts
    the simplex problems at the north-west corner of the children sorted by
    value.  Costs that overflow raise OverflowError.  A top-down pass then
    carries the pair masses down the reachable pairs by glue's level step
    with this one plan; the plan keeps the level plans as its kernels.
    """
    _check_order(p)
    _check_shapes(x, y)
    T = x.depth
    lx, ly = x.layout, y.layout
    plans: list[np.ndarray | None] = [None] * T
    values = None
    for t in range(T - 1, -1, -1):
        kx, ky = lx[t + 1], ly[t + 1]
        cost = _step_costs(kx.values[:, None], ky.values[None], p)
        if values is not None:
            cost += values
        values, plans[t] = _solve_level(kx.prob, ky.prob, lx[t].bounds, ly[t].bounds,
                                        cost, kx.values, ky.values)

    total = float(values[0, 0])
    # top-down pass: the reachable pairs, rows of positions, and their masses
    pos, mass, levels = np.zeros((1, 2), dtype=np.intp), np.ones(1), []
    for t in range(T):
        levels.append((pos[:, 0], pos[:, 1], plans[t]))
        k, pos, w = _level_step(pos, (lx[t].bounds, ly[t].bounds), plans[t:t + 1])
        mass = mass[k] * w
    value = _pth_root(total, p)
    plan = BicausalPlan(x=x, y=y, p=p, pair_masses=_LeafMasses((x, y), tuple(pos.T), mass), value=value,
                        kernels=_LevelKernels(x, y, levels))
    return value, plan


def _causality_rows(own: np.ndarray, partner: np.ndarray, reach: float,
                    leaf_mass: np.ndarray, n_own: int, n_partner: int) -> np.ndarray:
    """Causality rows of one own cylinder (leaf positions ``own``, mass
    ``reach``) against one partner cylinder, over (own leaf, partner leaf)
    cells: for each own leaf k but the last, reach times the mass of
    (k, partner) minus the mass of k times the mass of (own, partner)."""
    k = own[:-1]
    rows = np.zeros((k.size, n_own, n_partner))
    rows[np.arange(k.size)[:, None], k[:, None], partner] = reach
    rows[:, own[:, None], partner] -= leaf_mass[k][:, None, None]
    return rows


def _lp_rows(x: TreeProcess, y: TreeProcess):
    """Marginal plus linear causality rows for the path-pair LP."""
    nx, ny = len(x.leaves), len(y.leaves)
    mu, nu = x.layout[-1].reach, y.layout[-1].reach
    rows = [np.repeat(np.eye(nx), ny, axis=1), np.tile(np.eye(ny), nx)]
    for t in range(1, x.depth):
        under_x = [np.flatnonzero(x.leaf_ancestors[t] == a) for a in range(len(x.level(t)))]
        under_y = [np.flatnonzero(y.leaf_ancestors[t] == b) for b in range(len(y.level(t)))]
        # causal: the partner's past may not reveal this side's future
        for kx, reach in zip(under_x, x.layout[t].reach.tolist()):
            rows += [_causality_rows(kx, ly, reach, mu, nx, ny).reshape(-1, nx * ny)
                     for ly in under_y[:-1]]
        # anticausal: the mirror family, built over (y leaf, x leaf) cells
        for ky, reach in zip(under_y, y.layout[t].reach.tolist()):
            rows += [_causality_rows(ky, lx, reach, nu, ny, nx).transpose(0, 2, 1).reshape(-1, nx * ny)
                     for lx in under_x[:-1]]
    a = np.vstack(rows)
    return a, np.concatenate([mu, nu, np.zeros(len(a) - nx - ny)])


def aw_distance_lp(x: TreeProcess, y: TreeProcess, p: float) -> tuple[float, BicausalPlan]:
    """Independent oracle: one LP over path-pair masses with causality rows."""
    _check_order(p)
    _check_shapes(x, y)
    nx, ny = len(x.leaves), len(y.leaves)
    cost = _path_costs(x, y, p, np.arange(nx)[:, None], np.arange(ny)[None, :])
    a, b = _lp_rows(x, y)
    total, sol = lp_solve(cost.ravel(), a, b)
    kept = np.flatnonzero(sol > _PRUNE)
    value = _pth_root(total, p)
    plan = BicausalPlan(x=x, y=y, p=p, pair_masses=_LeafMasses((x, y), np.divmod(kept, ny), sol[kept]),
                        value=value)
    return value, plan


def _residuals(procs: Sequence[TreeProcess], leaf: Sequence[np.ndarray],
               m: np.ndarray) -> tuple[float, float]:
    """The worst marginal and the worst causality residual of masses ``m``
    on leaf tuples, ``leaf[i]`` holding their leaf positions in ``procs[i]``.

    Marginal: a leaf's mass against its path probability, or a negative
    mass.  Causality: P(v) gamma(k, w) = P(k) gamma(v, w) for a process i,
    a time t, a leaf k of i below its level-t node v and a tuple w of
    level-t nodes of the others, gamma a cylinder mass; for two processes
    i = 0 is causality, i = 1 anticausality.  NaN if a mass is not finite.
    """
    if not np.isfinite(m).all():
        return math.nan, math.nan
    marginal = -m.min(initial=0.0)
    for proc, pos in zip(procs, leaf):
        gaps = np.bincount(pos, weights=m, minlength=len(proc.leaves)) - proc.layout[-1].reach
        marginal = max(marginal, np.abs(gaps).max())
    causal = 0.0
    for t in range(1, procs[0].depth):
        anc = [proc.leaf_ancestors[t][pos] for proc, pos in zip(procs, leaf)]
        sizes = [len(proc.level(t)) for proc in procs]
        for i, proc in enumerate(procs):
            # w as one group number per mass: for two processes the other's
            # node position; otherwise the tuples that occur, numbered one
            # process at a time, so numbers stay below len(m) * sizes[j]
            others = [j for j in range(len(procs)) if j != i]
            group, groups = anc[others[0]], sizes[others[0]]
            for j in others[1:]:
                seen, group = np.unique(group * sizes[j] + anc[j], return_inverse=True)
                groups = seen.size
            n = len(proc.leaves)
            full = np.bincount(leaf[i] * groups + group, weights=m, minlength=n * groups).reshape(n, groups)
            cyl = np.bincount(anc[i] * groups + group, weights=m,
                              minlength=sizes[i] * groups).reshape(sizes[i], groups)
            up = proc.leaf_ancestors[t]
            gap = proc.layout[t].reach[up][:, None] * full - proc.layout[-1].reach[:, None] * cyl[up]
            causal = max(causal, np.abs(gap).max(initial=0.0))
    return float(marginal), float(causal)


def check_bicausal(plan: BicausalPlan, tol: float = CAUSALITY_TOL) -> bool:
    """Verify marginal and two-sided causality identities of a plan, the
    two-process case of ``check_multicausal``."""
    masses = plan.pair_masses
    marginal, causal = _residuals(masses.procs, masses.leaf, masses.mass)
    return marginal <= MARGINAL_TOL and causal <= tol   # false for NaN


class _NodeTuples(_DictView):
    """The factor nodes of every product node, kept as ``positions`` (see
    ``MulticausalCoupling``).  As a Mapping it maps product node ids to
    tuples of factor node ids, in the product's layout order; that dict is
    built on first access."""

    def __init__(self, procs: Sequence[TreeProcess], product: TreeProcess, positions: Sequence[np.ndarray]):
        self.procs, self.product, self.positions = tuple(procs), product, tuple(positions)

    def _build(self) -> dict[int, tuple[int, ...]]:
        out = {}
        for t, pos in enumerate(self.positions):
            ids = [map(proc.level(t).__getitem__, col.tolist()) for proc, col in zip(self.procs, pos.T)]
            out.update(zip(self.product.level(t), zip(*ids)))
        return out


def _node_positions(procs: Sequence[TreeProcess], product: TreeProcess,
                    node_tuple: Mapping[int, tuple[int, ...]]) -> tuple[np.ndarray, ...]:
    """``positions`` from a Mapping of product node ids to factor node ids."""
    out = []
    for t, level in enumerate(product.layout):
        index = [{node: k for k, node in enumerate(proc.level(t))} for proc in procs]
        try:
            out.append(np.array([[at[node] for at, node in zip(index, node_tuple[pid])] for pid in level.ids],
                                dtype=np.intp).reshape(len(level.ids), len(procs)))
        except KeyError as exc:
            raise ValueError(f"node tuples name no node {exc} at level {t}") from None
    return tuple(out)


@dataclass(frozen=True)
class MulticausalCoupling:
    """Joint law of a chain of processes glued from consecutive bicausal plans.

    ``product`` is the common filtered space: one tree whose nodes are the
    reachable tuples of factor nodes and whose values concatenate the factor
    values.  ``positions[t]``, for t = 0..T, is a read-only array with one
    row per node of ``product.level(t)`` whose column i is the position of
    its i-th factor node in ``processes[i].level(t)``; ``node_tuple`` maps
    each product node to its factor nodes, a view of ``positions`` (when no
    positions are given, they are taken from ``node_tuple``).  ``masses``
    maps leaf tuples to masses; it is a ``_LeafMasses``, and a Mapping
    handed to the constructor is converted to one.
    """

    processes: tuple[TreeProcess, ...]
    masses: Mapping[tuple[int, ...], float]
    plans: tuple[BicausalPlan, ...]
    product: TreeProcess
    node_tuple: Mapping[int, tuple[int, ...]] | None = None
    positions: tuple[np.ndarray, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        procs, tuples, positions = tuple(self.processes), self.node_tuple, self.positions
        if not positions:
            same = isinstance(tuples, _NodeTuples) and tuples.procs == procs and tuples.product is self.product
            positions = tuples.positions if same else _node_positions(procs, self.product, tuples)
        for arr in positions:
            arr.flags.writeable = False
        object.__setattr__(self, "positions", tuple(positions))
        object.__setattr__(self, "node_tuple", _NodeTuples(procs, self.product, positions))
        object.__setattr__(self, "masses", _LeafMasses.of(procs, self.masses))

    def factor_values(self, i: int) -> list[np.ndarray]:
        """Per level t = 1..T, the value of every product node's i-th factor
        node, rows in ``product.level(t)`` order."""
        return [level.values[pos[:, i]]
                for level, pos in zip(self.processes[i].layout[1:], self.positions[1:])]


def _row_sums(kernel: np.ndarray, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``kernel[rows[e], lo[e]:hi[e]].sum()`` for every e, summed as numpy sums
    a row of a C-ordered block (pairwise from nine entries on)."""
    width = hi - lo
    out = np.empty(rows.size)
    for m in set(width.tolist()):
        e = np.flatnonzero(width == m)
        out[e] = kernel[rows[e, None], lo[e, None] + np.arange(m)].sum(axis=1)
    return out


def _level_step(pos: np.ndarray, bounds: Sequence[np.ndarray], kernels: Sequence[np.ndarray]):
    """One level of a chain's joint transitions: the children of the node
    tuples whose factor positions are the rows of ``pos``, from the factors'
    level ``bounds`` and each plan's level kernel.  Factors 0 and 1 move
    jointly, to the positive cells of the tuple's block in ``kernels[0]``,
    weighted by those entries; each later factor moves on its predecessor's
    child, to the positive entries of that child's row in the next kernel,
    weighted by entry over row sum.  Returns each child's parent row, factor
    positions (rows, tuple after tuple, cells row-major) and weight."""
    a, b = pos[:, 0], pos[:, 1]
    k, cx, cy = _expand(bounds[0][a], bounds[0][a + 1], bounds[1][b], bounds[1][b + 1])
    live = (w := kernels[0][cx, cy]) > 0.0
    k, w, child = k[live], w[live], np.column_stack([cx[live], cy[live]])
    for f in range(1, len(kernels)):
        kernel, b = kernels[f], pos[k, f + 1]
        lo, hi = bounds[f + 1][b], bounds[f + 1][b + 1]
        rowsum = _row_sums(kernel, child[:, f], lo, hi)
        e, r, c = _expand(child[:, f], child[:, f] + 1, lo, hi)
        q = kernel[r, c]
        live = (rowsum[e] > 0.0) & (q > 0.0)
        e, c, q = e[live], c[live], q[live]
        k, w, child = k[e], w[e] * (q / rowsum[e]), np.column_stack([child[e], c])
    return k, child, w


def glue(plans: Sequence[BicausalPlan], max_leaves: int = MAX_PRODUCT_LEAVES) -> MulticausalCoupling:
    """Concatenate consecutive bicausal plans into one multicausal coupling.

    The product tree is built a level at a time over the factor positions
    of its nodes, one row per product node: its children are the level step
    ``_level_step``, the plans' level kernels composed Markov-chain style.
    """
    if not plans:
        raise ValueError("no plans to glue")
    chain = [plans[0].x] + [pl.y for pl in plans]
    for i, pl in enumerate(plans):
        if pl.x is not chain[i] and pl.x != chain[i]:
            raise ValueError(f"plan {i} does not start at process {i} of the chain")
        _check_shapes(pl.x, pl.y)
    kernels = [[kernel for _, _, kernel in pl.effective_kernels().levels] for pl in plans]
    T, n = chain[0].depth, len(chain)
    dims = tuple(sum(pr.value_dims[t] for pr in chain) for t in range(T))

    pos = np.zeros((1, n), dtype=np.intp)   # factor positions of the level's product nodes
    positions = [pos]
    parents, probs, values = [], [], []      # the product's level arrays, t = 1..T
    first = 1                                # id of the next level's first product node
    for t in range(T):
        k, child, w = _level_step(pos, [pr.layout[t].bounds for pr in chain], [kern[t] for kern in kernels])
        counts = np.bincount(k, minlength=len(pos))
        total = np.fromiter(map(math.fsum, _slices(w.tolist(), counts)), float, len(pos))
        if (total <= 0.0).any():
            raise RuntimeError(f"degenerate kernel at product node {first - len(pos) + np.argmax(total <= 0.0)}")
        if k.size > max_leaves:
            raise SizeGuardError(
                f"product tree exceeds {max_leaves} leaves: level {t + 1} has {k.size} nodes")
        # a two-process product keeps the raw kernel masses (exact for
        # exactly-representable inputs); longer chains normalize away the
        # common-mode rounding of the ratio products
        if n > 2:
            w = w / total[k]
        parents.append(k)
        probs.append(w)
        # values concatenate the factors' level value arrays
        values.append(np.concatenate([pr.layout[t + 1].values[col] for pr, col in zip(chain, child.T)], axis=1))
        first, pos = first + k.size, child
        positions.append(pos)

    product = _from_levels(dims, parents, probs, values)
    # the product's leaves are the last level, in its order
    masses = _LeafMasses(chain, tuple(pos.T), product.layout[-1].reach)
    return MulticausalCoupling(processes=tuple(chain), masses=masses, plans=tuple(plans),
                               product=product, positions=tuple(positions))


def check_multicausal(coupling: MulticausalCoupling, tol: float = CAUSALITY_TOL) -> bool:
    """Verify factor marginals and every multicausal product identity."""
    masses = coupling.masses
    marginal, causal = _residuals(masses.procs, masses.leaf, masses.mass)
    return marginal <= MARGINAL_TOL and causal <= tol   # false for NaN


def factor_plan(coupling: MulticausalCoupling, i: int, p: float) -> BicausalPlan:
    """Coupling of factor i with the common-space process carrying its labels.

    Pairs every product leaf with its i-th coordinate leaf; the partner
    process is the product tree relabelled with the factor's values.
    """
    proc, product = coupling.processes[i], coupling.product
    lifted = process_with_values(product, coupling.factor_values(i))
    reach = product.layout[-1].reach
    masses = _LeafMasses((proc, lifted), (coupling.positions[-1][:, i], np.arange(reach.size)), reach)
    return BicausalPlan.from_pair_masses(proc, lifted, p, masses)
