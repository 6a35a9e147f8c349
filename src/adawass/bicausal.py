"""Adapted Wasserstein distance and bicausal couplings on scenario trees.

Two independent routes compute the same optimum.  The main solver runs a
backward induction over pairs of tree nodes, solving one small transport
problem per pair; this is exact because bicausal couplings of tree-filtered
processes factorize into successive conditional couplings.  It solves a
tree level at a time; the transportation simplex starts each problem with
two or more children on each side, other than 2x2, at the north-west
corner of its children sorted by value, and a top-down pass over index
arrays of the reachable node pairs forms the path-pair masses.  A plan
keeps its nodewise kernels as one matrix per level over the children of
both trees (``_LevelKernels``), which ``glue`` reads a level at a time.
The oracle solves one linear program over path-pair masses whose
causality conditions enter as linear product identities against the fixed
marginal laws.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain as concat, repeat
from operator import attrgetter, itemgetter
from typing import Mapping, Sequence

import numpy as np

from .discrete_ot import (  # noqa: F401  (solve_transport: perfbench/tracer.py wraps it here)
    BALANCE_TOL,
    MARGINAL_TOL,
    InfeasibleError,
    _simplex_shape,
    _solve_batch,
    lp_solve,
    solve_transport,
)
from .trees import (
    ShapeMismatchError,
    TreeNode,
    TreeProcess,
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
# Nodewise problems solved together in one lockstep batch: large enough that
# the per-pivot numpy calls are shared by many problems, small enough that the
# batch's basis inverses stay a few megabytes.
_LEVEL_BATCH = 1024


class SizeGuardError(RuntimeError):
    """A product-space construction would exceed the configured size limit."""


def _check_pair(x: TreeProcess, y: TreeProcess) -> None:
    if x.depth != y.depth or x.value_dims != y.value_dims:
        raise ShapeMismatchError(
            f"shape mismatch: depth {x.depth}/{y.depth}, dims {x.value_dims}/{y.value_dims}"
        )


@dataclass(frozen=True)
class BicausalPlan:
    """Coupling of two tree processes, stored as path-pair masses.

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

    @classmethod
    def from_pair_masses(cls, x: TreeProcess, y: TreeProcess, p: float,
                         masses: Mapping[tuple[int, int], float]) -> "BicausalPlan":
        _check_pair(x, y)
        i, j, m = _pair_arrays(x, y, masses)
        weighted = m * _path_costs(x, y, p, i, j)
        # summed in listing order, as a running total
        cost = float(np.cumsum(weighted)[-1]) if weighted.size else 0.0
        return cls(x=x, y=y, p=p, pair_masses=dict(masses), value=cost ** (1.0 / p))

    @classmethod
    def product(cls, x: TreeProcess, y: TreeProcess, p: float) -> "BicausalPlan":
        """Independent coupling of the two path laws; always bicausal."""
        mu, nu = x.reach_prob, y.reach_prob
        masses = {(k, l): mu[k] * nu[l] for k in x.leaves for l in y.leaves}
        return cls.from_pair_masses(x, y, p, masses)

    def matrix(self) -> np.ndarray:
        m = np.zeros((len(self.x.leaves), len(self.y.leaves)))
        i, j, masses = _pair_arrays(self.x, self.y, self.pair_masses)
        m[i, j] = masses
        return m

    def effective_kernels(self) -> _LevelKernels:
        """Stored kernels, or kernels recovered from cylinder masses."""
        if self.kernels is not None:
            return self.kernels
        return _LevelKernels(self.x, self.y, _levels_from_masses(self))


def _pair_arrays(x: TreeProcess, y: TreeProcess, masses: Mapping[tuple[int, int], float]):
    """Leaf positions (i, j) and masses of the listed leaf pairs, as arrays."""
    try:
        i = np.array([x.leaf_index[k] for k, _ in masses], dtype=np.intp)
        j = np.array([y.leaf_index[l] for _, l in masses], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"plan lists a pair with a non-leaf node {exc}") from None
    return i, j, np.fromiter(masses.values(), float, len(masses))


def _step_costs(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """step_cost over the last axis of two value arrays: |a - b|_2^p; a cost
    that overflows is inf, without a warning."""
    with np.errstate(over="ignore"):
        return np.sqrt(((a - b) ** 2).sum(axis=-1)) ** p


def _path_costs(x: TreeProcess, y: TreeProcess, p: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Costs of the leaf pairs (x.leaves[i], y.leaves[j]), broadcast over i and j.

    The step costs (step_cost of the two values at each time) are added
    from the first step on.
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
    i, j, m = _pair_arrays(x, y, plan.pair_masses)
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


def _value_order(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Positions of a level's children, each parent's block sorted by value.

    A stable ``np.lexsort``: first by the parent's position, then by the
    child's value vector in lexicographic order; ties keep tree order.
    """
    parent = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    return np.lexsort((*values.T[::-1], parent))


def _solve_level(mu: np.ndarray, nu: np.ndarray, bx: np.ndarray, by: np.ndarray,
                 cost: np.ndarray, vx: np.ndarray, vy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every nodewise problem of one level at once.

    ``cost`` is indexed by the children of the level on both sides; the
    problem of parents (a, b) is its block ``[bx[a]:bx[a+1], by[b]:by[b+1]]``
    with edge probabilities ``mu`` and ``nu`` over the same ranges.  Returns
    the parents' values and the plans, block for block.  The parent pairs
    are grouped by their numbers of children, and each group is solved in
    batches of at most ``_LEVEL_BATCH`` problems, which bounds the memory of
    the lockstep simplex.  Problems for the transportation simplex list
    their rows and columns in the value order (``_value_order``) of the
    children's values ``vx`` and ``vy``, one row per child, and their plans
    are scattered back to tree order; the closed forms keep tree order.
    """
    if not np.isfinite(cost).all():
        if np.isnan(cost).any():
            raise ValueError("cost entries must be finite")
        # values are finite, so their costs (or sums of them) overflowed
        raise OverflowError("nodewise costs overflow: the values are too far apart for this order")
    kx, ky = np.diff(bx), np.diff(by)
    mu_sum = np.bincount(np.repeat(np.arange(kx.size), kx), weights=mu, minlength=kx.size)
    nu_sum = np.bincount(np.repeat(np.arange(ky.size), ky), weights=nu, minlength=ky.size)
    unbalanced = np.argwhere(np.abs(mu_sum[:, None] - nu_sum[None, :]) > BALANCE_TOL)
    if unbalanced.size:
        a, b = unbalanced[0]
        raise InfeasibleError(
            f"marginal masses {mu_sum[a]!r} and {nu_sum[b]!r} do not balance"
        )
    values = np.empty((kx.size, ky.size))
    plans = np.zeros_like(cost)
    # sorted(set(...)), not np.unique, which imports numpy.ma (2 MB) on first use
    sizes_x, sizes_y = sorted(set(kx.tolist())), sorted(set(ky.tolist()))
    # the largest shape is a simplex shape if any is
    if _simplex_shape(sizes_x[-1], sizes_y[-1]):
        ox, oy = _value_order(vx, bx), _value_order(vy, by)
    for n in sizes_x:
        for m in sizes_y:
            general = _simplex_shape(n, m)
            pa, pb = (g.ravel() for g in np.meshgrid(
                np.flatnonzero(kx == n), np.flatnonzero(ky == m), indexing="ij"))
            for s in range(0, pa.size, _LEVEL_BATCH):
                a, b = pa[s:s + _LEVEL_BATCH], pb[s:s + _LEVEL_BATCH]
                rows = bx[a][:, None] + np.arange(n)
                cols = by[b][:, None] + np.arange(m)
                if general:
                    rows, cols = ox[rows], oy[cols]
                block = (rows[:, :, None], cols[:, None, :])
                values[a, b], plans[block] = _solve_batch(mu[rows], nu[cols], cost[block])
    return values, plans


class _LevelKernels(Mapping):
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

    @functools.cached_property
    def _kernels(self) -> dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...], np.ndarray]]:
        x, y = self._trees
        out = {}
        for t, (px, py, kernel) in enumerate(self.levels):
            ids_x, ids_y = x.level(t), y.level(t)
            bx, by = x.layout[t].bounds.tolist(), y.layout[t].bounds.tolist()
            for a, b in zip(px.tolist(), py.tolist()):
                vx, vy, block = ids_x[a], ids_y[b], kernel[bx[a]:bx[a + 1], by[b]:by[b + 1]]
                out[(vx, vy)] = (x.children(vx), y.children(vy), block)
        return out

    def __getitem__(self, key):
        return self._kernels[key]

    def __iter__(self):
        return iter(self._kernels)

    def __len__(self) -> int:
        return len(self._kernels)


def aw_distance(x: TreeProcess, y: TreeProcess, p: float) -> tuple[float, BicausalPlan]:
    """Adapted Wasserstein distance of order p with an optimal bicausal plan.

    Backward induction: at each pair of nodes the child distributions are
    coupled optimally against the one-step cost plus the continuation value;
    the root value is the p-th power of the distance.  The work runs a level
    at a time, on cost and value matrices over all node pairs of the level.
    The transportation simplex starts each general problem at the north-west
    corner of its children sorted by value: for one-dimensional values and
    a convex cost that corner is the monotone (quantile) coupling, optimal
    for the step cost alone, so few pivots remain.  A top-down pass then
    carries the pair masses down over the reachable pairs only, as index
    arrays; the plan keeps the level plans as its kernels.
    """
    _check_pair(x, y)
    if p < 1.0:
        raise ValueError(f"order p must be >= 1, got {p}")
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
    # top-down pass: per level the reachable pairs as positions (px, py), the
    # cells of their blocks, and the masses, child = parent mass times plan entry
    px = py = np.zeros(1, dtype=np.intp)
    mass = np.ones(1)
    levels = []
    for t in range(T):
        bx, by = lx[t].bounds, ly[t].bounds
        levels.append((px, py, plans[t]))
        k, cx, cy = _expand(bx[px], bx[px + 1], by[py], by[py + 1])
        flat = plans[t][cx, cy]
        reached = flat > 0.0
        px, py, mass = cx[reached], cy[reached], mass[k[reached]] * flat[reached]
    pairs = zip(map(x.leaves.__getitem__, px.tolist()), map(y.leaves.__getitem__, py.tolist()))
    masses = dict(zip(pairs, mass.tolist()))
    value = total ** (1.0 / p)
    plan = BicausalPlan(x=x, y=y, p=p, pair_masses=masses, value=value, kernels=_LevelKernels(x, y, levels))
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
    _check_pair(x, y)
    if p < 1.0:
        raise ValueError(f"order p must be >= 1, got {p}")
    lx, ly = x.leaves, y.leaves
    ny = len(ly)
    cost = _path_costs(x, y, p, np.arange(len(lx))[:, None], np.arange(ny)[None, :])
    a, b = _lp_rows(x, y)
    total, sol = lp_solve(cost.ravel(), a, b)
    kept = np.flatnonzero(sol > _PRUNE)
    i, j = np.divmod(kept, ny)
    pairs = zip(map(lx.__getitem__, i.tolist()), map(ly.__getitem__, j.tolist()))
    masses = dict(zip(pairs, sol[kept].tolist()))
    value = max(total, 0.0) ** (1.0 / p)
    plan = BicausalPlan(x=x, y=y, p=p, pair_masses=masses, value=value)
    return value, plan


def check_bicausal(plan: BicausalPlan, tol: float = CAUSALITY_TOL) -> bool:
    """Verify marginal and two-sided causality identities of a plan."""
    x, y = plan.x, plan.y
    pi = plan.matrix()
    if not np.isfinite(pi).all():  # every comparison below is false for NaN
        return False
    mu, nu = x.layout[-1].reach, y.layout[-1].reach
    if np.abs(pi.sum(axis=1) - mu).max() > MARGINAL_TOL:
        return False
    if np.abs(pi.sum(axis=0) - nu).max() > MARGINAL_TOL:
        return False
    if pi.min() < -MARGINAL_TOL:
        return False
    for t in range(1, x.depth):
        anc_x, anc_y = x.leaf_ancestors[t], y.leaf_ancestors[t]
        reach_x, reach_y = x.layout[t].reach, y.layout[t].reach
        # 0/1 matrices: level-t cylinder against leaf
        gx, gy = np.eye(reach_x.size)[:, anc_x], np.eye(reach_y.size)[:, anc_y]
        pi_kw = pi @ gy.T                      # leaf of x versus level-t cylinder of y
        pi_vw = gx @ pi_kw                     # cylinder against cylinder
        causal = reach_x[anc_x][:, None] * pi_kw - mu[:, None] * pi_vw[anc_x, :]
        if np.abs(causal).max() > tol:
            return False
        pi_vl = gx @ pi
        anticausal = reach_y[anc_y][None, :] * pi_vl - nu[None, :] * pi_vw[:, anc_y]
        if np.abs(anticausal).max() > tol:
            return False
    return True


@dataclass(frozen=True)
class MulticausalCoupling:
    """Joint law of a chain of processes glued from consecutive bicausal plans.

    ``product`` is the common filtered space: one tree whose nodes are the
    reachable tuples of factor nodes and whose values concatenate the factor
    values; ``node_tuple`` maps each product node to its factor nodes.
    """

    processes: tuple[TreeProcess, ...]
    masses: Mapping[tuple[int, ...], float]
    plans: tuple[BicausalPlan, ...]
    product: TreeProcess
    node_tuple: Mapping[int, tuple[int, ...]]

    def pair_marginal(self, i: int) -> dict[tuple[int, int], float]:
        """Marginal of coordinates (i, i+1) on leaf pairs."""
        out: dict[tuple[int, int], float] = {}
        for tup, m in self.masses.items():
            key = (tup[i], tup[i + 1])
            out[key] = out.get(key, 0.0) + m
        return out


def _row_sums(kernel: np.ndarray, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``kernel[rows[e], lo[e]:hi[e]].sum()`` for every e, summed as numpy sums
    a row of a C-ordered block (pairwise from nine entries on)."""
    width = hi - lo
    out = np.empty(rows.size)
    for m in set(width.tolist()):
        e = np.flatnonzero(width == m)
        out[e] = kernel[rows[e, None], lo[e, None] + np.arange(m)].sum(axis=1)
    return out


def glue(plans: Sequence[BicausalPlan], max_leaves: int = MAX_PRODUCT_LEAVES) -> MulticausalCoupling:
    """Concatenate consecutive bicausal plans into one multicausal coupling.

    The joint transition at a tuple of nodes composes the nodewise kernels
    Markov-chain style along the chain: the first coordinate moves jointly
    with the second through the first plan's kernel, each later coordinate
    moves conditionally on its predecessor through the next kernel.  The
    product tree is built a level at a time over the factor positions of
    its nodes, one row per product node, reading the plans' level kernels.
    """
    if not plans:
        raise ValueError("no plans to glue")
    chain = [plans[0].x] + [pl.y for pl in plans]
    for i, pl in enumerate(plans):
        if pl.x is not chain[i] and pl.x != chain[i]:
            raise ValueError(f"plan {i} does not start at process {i} of the chain")
        _check_pair(pl.x, pl.y)
    kernels = [[kernel for _, _, kernel in pl.effective_kernels().levels] for pl in plans]
    T, n = chain[0].depth, len(chain)
    dims = tuple(sum(pr.value_dims[t] for pr in chain) for t in range(T))

    nodes = [TreeNode(id=0, parent=None, time=0, value=None, prob=1.0)]
    tuples = [tuple(pr.root_id for pr in chain)]
    node_tuple: dict[int, tuple[int, ...]] = {0: tuples[0]}
    pos = np.zeros((1, n), dtype=np.intp)   # factor positions of the level's product nodes
    first = 0                                # id of the level's first product node
    for t in range(T):
        bounds = [pr.layout[t].bounds for pr in chain]
        # joint children: every child of the first factor, extended one
        # coordinate at a time by the positive entries of its row in the next
        # kernel, weighted by entry over row sum; the first kernel's blocks
        # are joint laws, so its entries are the weights themselves
        a, zero = pos[:, 0], np.zeros(len(pos), dtype=np.intp)
        k, r, _ = _expand(bounds[0][a], bounds[0][a + 1], zero, zero + 1)
        child, w = r[:, None], np.ones(k.size)
        for f in range(n - 1):
            kernel, b = kernels[f][t], pos[k, f + 1]
            lo, hi = bounds[f + 1][b], bounds[f + 1][b + 1]
            rowsum = _row_sums(kernel, child[:, f], lo, hi) if f else np.ones(k.size)
            e, r, c = _expand(child[:, f], child[:, f] + 1, lo, hi)
            q = kernel[r, c]
            live = (rowsum[e] > 0.0) & (q > 0.0)
            e, c, q = e[live], c[live], q[live]
            k, w, child = k[e], w[e] * (q / rowsum[e]), np.column_stack([child[e], c])
        ends = np.bincount(k, minlength=len(pos)).cumsum()
        total = np.array([math.fsum(part) for part in np.split(w, ends[:-1])])
        if (total <= 0.0).any():
            raise RuntimeError(f"degenerate kernel at product node {first + np.argmax(total <= 0.0)}")
        if k.size > max_leaves:
            raise SizeGuardError(
                f"product tree exceeds {max_leaves} leaves: level {t + 1} has {k.size} nodes")
        # a two-process product keeps the raw kernel masses (exact for
        # exactly-representable inputs); longer chains normalize away the
        # common-mode rounding of the ratio products
        if n > 2:
            w = w / total[k]
        # values concatenate the factors' value tuples
        cols = [col.tolist() for col in child.T]
        values = zip(*(map([pr.by_id[v].value for v in pr.level(t + 1)].__getitem__, col)
                       for pr, col in zip(chain, cols)))
        ids = range(len(nodes), len(nodes) + k.size)
        nodes.extend(map(TreeNode, ids, (first + k).tolist(), repeat(t + 1),
                         map(tuple, map(concat.from_iterable, values)), w.tolist()))
        tuples = list(zip(*(map(pr.level(t + 1).__getitem__, col) for pr, col in zip(chain, cols))))
        node_tuple.update(zip(ids, tuples))
        first, pos = ids.start, child

    product = TreeProcess(depth=T, value_dims=dims, nodes=tuple(nodes))
    # the product's leaves are the last level, in its order
    masses = dict(zip(tuples, product.layout[-1].reach.tolist()))
    return MulticausalCoupling(processes=tuple(chain), masses=masses, plans=tuple(plans),
                               product=product, node_tuple=node_tuple)


def check_multicausal(coupling: MulticausalCoupling, tol: float = CAUSALITY_TOL) -> bool:
    """Verify factor marginals and every multicausal product identity."""
    procs = coupling.processes
    n = len(procs)
    m = np.fromiter(coupling.masses.values(), float, len(coupling.masses))
    # per factor, the leaf position of every mass
    leaf = [np.array([proc.leaf_index[tup[i]] for tup in coupling.masses], dtype=np.intp)
            for i, proc in enumerate(procs)]

    for i, proc in enumerate(procs):
        marg = np.bincount(leaf[i], weights=m, minlength=len(proc.leaves))
        if np.abs(marg - proc.layout[-1].reach).max() > MARGINAL_TOL:
            return False

    for i, proc in enumerate(procs):
        for t in range(1, proc.depth):
            # gamma(leaf or level-t cylinder of factor i, level-t cylinders of
            # the others), the others' cylinder tuples numbered as they come
            others = zip(*(procs[j].leaf_ancestors[t][leaf[j]].tolist() for j in range(n) if j != i))
            ids: dict[tuple, int] = {}
            group = np.array([ids.setdefault(o, len(ids)) for o in others], dtype=np.intp)
            anc = proc.leaf_ancestors[t]
            full = np.bincount(leaf[i] * len(ids) + group, weights=m,
                               minlength=len(proc.leaves) * len(ids)).reshape(-1, len(ids))
            cyl = np.bincount(anc[leaf[i]] * len(ids) + group, weights=m,
                              minlength=len(proc.level(t)) * len(ids)).reshape(-1, len(ids))
            lhs = full * proc.layout[t].reach[anc][:, None]
            rhs = cyl[anc] * proc.layout[-1].reach[:, None]
            if np.abs(lhs - rhs).max() > tol:
                return False
    return True


def _factor_labels(coupling: MulticausalCoupling, i: int) -> dict[int, tuple[float, ...]]:
    """Every product node but the root, with its i-th factor node's value tuple."""
    by_id, tuples = coupling.processes[i].by_id, coupling.node_tuple
    labels = dict(zip(tuples, map(attrgetter("value"),
                                  map(by_id.__getitem__, map(itemgetter(i), tuples.values())))))
    del labels[coupling.product.root_id]
    return labels


def factor_plan(coupling: MulticausalCoupling, i: int, p: float) -> BicausalPlan:
    """Coupling of factor i with the common-space process carrying its labels.

    Pairs every product leaf with its i-th coordinate leaf; the partner
    process is the product tree relabelled with the factor's values.
    """
    proc, product = coupling.processes[i], coupling.product
    lifted = process_with_values(product, _factor_labels(coupling, i), value_dims=proc.value_dims)
    leaves = product.leaves
    factor_leaves = map(itemgetter(i), map(coupling.node_tuple.__getitem__, leaves))
    masses = dict(zip(zip(factor_leaves, leaves), product.layout[-1].reach.tolist()))
    return BicausalPlan.from_pair_masses(proc, lifted, p, masses)
