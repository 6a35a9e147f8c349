"""Exact optimal transport between finite discrete laws.

Every transport problem goes through ``_solve_level``, which takes all the
problems of a tree level (per pair of parents, a block of one cost matrix);
``solve_transport`` is a level of one.  It checks them, then sends one-row
and one-column problems to a copy of the other marginal, 2x2 ones to a
closed form and the rest, in batches of one shape, to a transportation
simplex run in lockstep with numpy: a north-west-corner start (no phase
one), potentials from a basis inverse kept exact by rank-one updates, the
most negative reduced cost entering, lowest index first, the smallest-index
blocking cell leaving, and Bland's rule after a run of degenerate pivots,
so it cannot cycle.  A problem pivots on its own data and leaves the batch
once optimal, so its plan is the same in any batch.  The simplex lists the
atoms sorted by value (``_value_order``) and maps its plans back: on the
line with a convex cost that corner is the optimal monotone (quantile)
coupling, so few pivots remain; ``solve_transport`` passes atom positions
as values, so its corner is in the caller's order.  The dense two-phase
simplex ``lp_solve`` serves only the path-pair oracle: largest reduced cost
entering, lexicographic ratio test leaving, which keeps it cycle-free on the
degenerate causality polytopes.  Both pivot deterministically.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

__all__ = [
    "DiscreteLaw",
    "TransportPlan",
    "InfeasibleError",
    "SolverError",
    "UnboundedError",
    "lp_solve",
    "solve_transport",
    "w_distance",
]

# A law's masses may miss a total of one by this much per atom: tree edge
# probabilities sum to one within PROB_TOL (1e-12) per node, and path masses
# carry about 1e-16 of rounding per factor.
MASS_TOL = 1e-12
# A plan's row and column sums may miss its marginals by this much: the
# solvers' plans carry rounding near 1e-16 per cell, and pruning (bicausal's
# _PRUNE, 1e-13 per cell) shifts a row by at most its length times that.
MARGINAL_TOL = 1e-10
# Laws reject atoms lighter than this as degenerate: they are rounding residue
# of a product of probabilities, not mass a caller meant.
_MIN_ATOM = 1e-14
# Marginal totals may differ by this much before a problem counts as
# unbalanced: each side is normalized on its own (trees to within 1e-12).
BALANCE_TOL = 1e-9
# Reduced costs above -_OPTIMALITY_TOL * max|cost| count as optimal: potentials
# summed along a basis path carry rounding near (n + m) * 1e-16 * max|cost|,
# far below it, and stopping there leaves the value within it of the optimum.
_OPTIMALITY_TOL = 1e-12
# A 2x2 cost gap c00 - c01 - c10 + c11 at or below this times the problem's
# largest |cost| is a tie and takes the upper endpoint: the gap's rounding is
# near 1e-16 of that scale, at any scale.
_GAP_TOL = 1e-14
# Bland's rule takes over after this many degenerate pivots in a row per row
# and column node: the most negative reduced cost needs fewer pivots on
# degenerate problems, Bland's rule cannot cycle.
_BLAND_AFTER = 1
# Pivot cap per cell; Bland's rule already rules out cycling, so hitting it
# means a defect, which the iteration-limit error reports.
_MAX_PIVOTS_PER_CELL = 50
# The dense tableau of ``lp_solve`` treats entries at or below this as zero
# when choosing pivots, and reduced costs at or below it (times max(1, max|c|)
# in phase two) as optimal: each pivot leaves rounding near 1e-16 per entry, and
# pivoting on such residue would divide by noise.  The tolerance is absolute,
# so badly scaled rows can defeat it.
_PIVOT_TOL = 1e-10
# Ratios within this relative slack of the smallest count as tied in the
# lexicographic ratio test, so that rounding cannot break a tie that is exact
# in exact arithmetic and turn the pivot sequence away from its anti-cycling rule.
_RATIO_TIE = 1e-12
# A phase-one objective (the sum of the artificial variables) above this times
# max(1, max b) means no feasible point; below it is pivoting residue of an
# exactly feasible system.
_PHASE_ONE_TOL = 1e-8
# Problems solved together in one lockstep batch: large enough that the
# per-pivot numpy calls are shared by many problems, small enough that the
# batch's basis inverses stay a few megabytes.
_LEVEL_BATCH = 1024


class InfeasibleError(ValueError):
    """The constraint system admits no feasible point."""


class UnboundedError(ValueError):
    """The objective is unbounded below on the feasible set."""


class SolverError(RuntimeError):
    """A simplex hit its iteration limit: a defect, since neither solver can cycle."""


def _masses_off(total: float, n: int) -> bool:
    """Whether n masses summing to ``total`` miss one by more than MASS_TOL each (a NaN sum does)."""
    return not abs(total - 1.0) <= MASS_TOL * max(1.0, n)


@dataclass(frozen=True)
class DiscreteLaw:
    """Finitely supported law: an array of points and positive masses summing to one."""

    points: tuple[tuple[float, ...], ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.masses):
            raise ValueError("points and masses differ in length")
        if not self.points:
            raise ValueError("empty law")
        if any(m < _MIN_ATOM for m in self.masses):
            raise ValueError(f"degenerate atom mass below {_MIN_ATOM!r}")
        total = reduce(operator.add, self.masses, 0)    # left to right on any interpreter; ints sum to an int
        if _masses_off(total, len(self.masses)):
            raise ValueError(f"masses sum to {total!r}, expected 1")

    @classmethod
    def from_arrays(cls, points, masses) -> "DiscreteLaw":
        pts = tuple(tuple(float(x) for x in np.atleast_1d(p)) for p in points)
        return cls(points=pts, masses=tuple(float(m) for m in masses))

    def __len__(self) -> int:
        return len(self.masses)


@dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix between two discrete laws."""

    matrix: tuple[tuple[float, ...], ...]
    source_masses: tuple[float, ...]
    target_masses: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _leaving_row(tableau: np.ndarray, col: int, m: int, tol: float) -> int:
    """Lexicographic ratio test: anti-cycling and fully deterministic."""
    colvals = tableau[:m, col]
    pos = np.nonzero(colvals > tol)[0]
    if pos.size == 0:
        raise UnboundedError("objective unbounded along a simplex ray")
    ratios = tableau[pos, -1] / colvals[pos]
    best = ratios.min()
    active = pos[np.nonzero(ratios <= best + _RATIO_TIE * (1.0 + abs(best)))[0]]
    if active.size > 1:
        for c in range(tableau.shape[1] - 1):
            vals = tableau[active, c] / colvals[active]
            low = vals.min()
            active = active[np.nonzero(vals <= low + _RATIO_TIE * (1.0 + abs(low)))[0]]
            if active.size == 1:
                break
    return int(active[0])


def _simplex_iterate(tableau: np.ndarray, basis: np.ndarray, allowed: int,
                     tol: float, max_iter: int) -> None:
    """Run simplex iterations on a tableau whose last row holds z_j - c_j.

    Columns with index >= ``allowed`` may never enter the basis (used to
    keep artificial variables out in phase two).  Entering columns take the
    largest reduced cost with smallest-index tie-breaking; leaving rows use
    the lexicographic ratio test, so the pivot sequence cannot cycle and is
    identical on every run for the same input.
    """
    m = tableau.shape[0] - 1
    for _ in range(max_iter):
        reduced = tableau[m, :allowed]
        candidates = np.nonzero(reduced > tol)[0]
        if candidates.size == 0:
            return
        col = int(candidates[np.argmax(reduced[candidates])])
        row = _leaving_row(tableau, col, m, tol)
        _pivot(tableau, basis, row, col)
    raise SolverError("simplex iteration limit exceeded")


def lp_solve(c: Sequence[float], a_mat, b: Sequence[float],
             equality: Sequence[bool] | None = None) -> tuple[float, np.ndarray]:
    """Minimize c.x subject to A x (=|<=) b and x >= 0.

    ``equality`` flags each row as an equality (default: all rows).  Returns
    the optimal value and a basic optimal solution; raises InfeasibleError or
    UnboundedError otherwise.  Pivoting is deterministic, so repeated calls
    return the same optimal vertex.
    """
    a = np.array(a_mat, dtype=float)
    if a.ndim != 2:
        raise ValueError("constraint matrix must be two-dimensional")
    m, n = a.shape
    cost = np.asarray(c, dtype=float)
    rhs = np.array(b, dtype=float)
    if cost.shape != (n,) or rhs.shape != (m,):
        raise ValueError("inconsistent LP shapes")
    eq = np.ones(m, dtype=bool) if equality is None else np.asarray(equality, dtype=bool)
    if eq.shape != (m,):
        raise ValueError("equality flags must match the number of rows")

    slack_rows = np.nonzero(~eq)[0]
    n_slack = slack_rows.size
    n_art = m
    total = n + n_slack + n_art

    ext = np.zeros((m, total))
    ext[:, :n] = a
    for k, i in enumerate(slack_rows):
        ext[i, n + k] = 1.0
    neg = rhs < 0
    ext[neg] *= -1.0
    rhs = np.where(neg, -rhs, rhs)
    ext[:, n + n_slack:] = np.eye(m)

    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :total] = ext
    tableau[:m, -1] = rhs
    basis = np.arange(n + n_slack, total)

    # phase one: z_j - c_j for the artificial cost is the column sum
    tableau[m, :] = tableau[:m, :].sum(axis=0)
    tableau[m, n + n_slack:total] = 0.0
    _simplex_iterate(tableau, basis, allowed=n + n_slack, tol=_PIVOT_TOL,
                     max_iter=200 * (m + total))
    if tableau[m, -1] > _PHASE_ONE_TOL * max(1.0, float(rhs.max()) if m else 1.0):
        raise InfeasibleError(f"phase-one residual {tableau[m, -1]!r}")

    # drive artificial variables out of the basis where possible
    for i in range(m):
        if basis[i] >= n + n_slack:
            cols = np.nonzero(np.abs(tableau[i, : n + n_slack]) > _PIVOT_TOL)[0]
            if cols.size:
                _pivot(tableau, basis, i, int(cols[0]))

    # phase two objective row for the true cost
    cost_ext = np.zeros(total)
    cost_ext[:n] = cost
    tableau[m, :] = cost_ext[basis] @ tableau[:m, :]
    tableau[m, :total] -= cost_ext
    scale = max(1.0, float(np.abs(cost).max()) if cost.size else 1.0)
    _simplex_iterate(tableau, basis, allowed=n + n_slack, tol=_PIVOT_TOL * scale,
                     max_iter=200 * (m + total))

    x = np.zeros(total)
    x[basis] = tableau[:m, -1]
    solution = x[:n]
    value = float(cost @ solution)
    return value, solution


def _transport_simplex(mu: np.ndarray, nu: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Transportation simplex on a batch of same-shape problems; returns the plans.

    ``mu`` has shape (B, n), ``nu`` (B, m) and ``cost`` (B, n, m).  Every
    problem starts from its north-west corner and pivots in lockstep with the
    others; a problem leaves the active set once it is optimal, and the pivots
    of one problem never read another's data, so its plan is the same in any
    batch.  Per problem the state is the basis cells, their flows and the
    inverse of the basis over the potentials: row 0 stands for u_0 = 0, rows
    1..n-1 for u_1..u_{n-1} and rows n..n+m-1 for v_0..v_{m-1}, and row q holds
    the signs with which the basis costs sum to potential q.  The basis
    matrix is totally unimodular, so the inverse holds only 0 and +-1 and its
    rank-one (Sherman-Morrison) update is exact.  Each pivot enters the cell
    of most negative reduced cost c_ij - u_i - v_j (lowest flat index among
    ties); the sum of the inverse's rows u_i and v_j is the cycle that the
    entering cell closes, +1 on the cells that lose mass, and the leaving cell
    is the blocking cell of smallest row-major index.  After n + m degenerate
    pivots in a row the entering cell is the lowest-index improving one
    (Bland's rule) until a pivot moves mass, so the pivot sequence cannot
    cycle.
    """
    size, n, m = cost.shape
    k_basis = n + m - 1
    # north-west corner with degenerate fill: one index advances per cell,
    # and the node it reaches gets the cell's cost minus its neighbour's potential
    rows, cols = mu.copy(), nu.copy()
    cells = np.empty((size, k_basis), dtype=np.intp)
    flow = np.empty((size, k_basis))
    inv = np.zeros((size, n + m, k_basis))
    batch = np.arange(size)
    i = np.zeros(size, dtype=np.intp)
    j = np.zeros(size, dtype=np.intp)
    new, old = np.full(size, n), i.copy()
    for k in range(k_basis):
        take = np.minimum(rows[batch, i], cols[batch, j])
        cells[:, k] = i * m + j
        flow[:, k] = take
        inv[batch, new] = -inv[batch, old]
        inv[batch, new, k] = 1.0
        if k == k_basis - 1:
            break
        down = (j == m - 1) | ((i < n - 1) & (rows[batch, i] <= cols[batch, j]))
        cols[batch[down], j[down]] -= take[down]
        rows[batch[~down], i[~down]] -= take[~down]
        i, j = i + down, j + ~down
        new, old = np.where(down, i, n + j), np.where(down, n + j, i)

    cflat = cost.reshape(size, n * m)
    cbasis = np.take_along_axis(cflat, cells, axis=1)
    tol = _OPTIMALITY_TOL * np.abs(cflat).max(axis=1)
    degenerate = np.zeros(size, dtype=np.intp)
    plans = np.zeros((size, n * m))
    active = batch
    for _ in range(_MAX_PIVOTS_PER_CELL * n * m):
        pot = (inv * cbasis[:, None, :]).sum(axis=2)
        reduced = cflat - (pot[:, :n, None] + pot[:, None, n:]).reshape(-1, n * m)
        improving = reduced < -tol[:, None]
        done = ~improving.any(axis=1)
        if done.any():
            plans[active[done, None], cells[done]] = flow[done]
            keep = ~done
            active, cells, flow, inv, cbasis, cflat, tol, degenerate, reduced, improving = (
                arr[keep] for arr in (active, cells, flow, inv, cbasis, cflat, tol,
                                      degenerate, reduced, improving))
            if not active.size:
                break
        at = np.arange(active.size)
        enter = np.where(degenerate < _BLAND_AFTER * (n + m),
                         reduced.argmin(axis=1), improving.argmax(axis=1))
        ei, ej = np.divmod(enter, m)
        cycle = inv[at, ei] + inv[at, n + ej]
        losing = cycle > 0.0
        theta = np.where(losing, flow, np.inf).min(axis=1)
        leave = np.where(losing & (flow == theta[:, None]), cells, n * m).argmin(axis=1)
        flow -= theta[:, None] * cycle
        flow[at, leave] = theta
        cells[at, leave] = enter
        cbasis[at, leave] = cflat[at, enter]
        cycle[at, leave] -= 1.0
        inv -= inv[at, :, leave][:, :, None] * cycle[:, None, :]
        degenerate = np.where(theta == 0.0, degenerate + 1, 0)
    if active.size:
        raise SolverError("transport simplex iteration limit exceeded")
    return plans.reshape(size, n, m)


def _transport_2x2(mu: np.ndarray, nu: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Closed form for a batch of 2x2 problems; plans of shape (..., 2, 2).

    ``mu`` and ``nu`` have shape (..., 2) and ``cost`` (..., 2, 2), all
    broadcast together.  Each polytope has one parameter, the mass on cell
    (0, 0), between ``lo`` and ``hi``; the endpoint is chosen by the cost gap
    against the problem's scale.
    """
    mu0, mu1, nu0 = mu[..., 0], mu[..., 1], nu[..., 0]
    lo = np.maximum(0.0, mu0 + nu0 - 1.0)
    hi = np.minimum(mu0, nu0)
    gap = cost[..., 0, 0] - cost[..., 0, 1] - cost[..., 1, 0] + cost[..., 1, 1]
    theta = np.where(gap > _GAP_TOL * np.abs(cost).max(axis=(-2, -1)), lo, hi)
    plan = np.stack(np.broadcast_arrays(theta, mu0 - theta, nu0 - theta, mu1 - nu0 + theta), axis=-1)
    return np.maximum(plan, 0.0).reshape(plan.shape[:-1] + (2, 2))


def _simplex_shape(n: int, m: int) -> bool:
    """Whether n x m problems go to the transportation simplex: those with no
    closed form (not one row, one column or 2x2)."""
    return n > 1 and m > 1 and n * m > 4


def _solve_batch(mu: np.ndarray, nu: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and plans of B balanced problems of one shape; no checks.

    ``mu`` has shape (B, n), ``nu`` (B, m) and ``cost`` (B, n, m).  One-row
    and one-column problems are copies of the other marginal, 2x2 ones take
    the closed form and the rest the transportation simplex; every step
    treats each problem on its own, so results do not depend on the batch.
    """
    size, n, m = cost.shape
    if _simplex_shape(n, m):
        plans = _transport_simplex(mu, nu, cost)
    elif n == 1:
        plans = nu[:, None, :].copy()
    elif m == 1:
        plans = mu[:, :, None].copy()
    else:
        plans = _transport_2x2(mu, nu, cost)
    plans[plans < 0.0] = 0.0
    return (plans * cost).reshape(size, n * m).sum(axis=1), plans


def _value_order(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Positions of a level's children, each parent's block sorted by value.

    A stable ``np.lexsort``: first by the parent's position, then by the
    child's value vector in lexicographic order; ties keep tree order.
    """
    parent = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    return np.lexsort((*values.T[::-1], parent))


def _solve_level(mu: np.ndarray, nu: np.ndarray, bx: np.ndarray, by: np.ndarray,
                 cost: np.ndarray, vx: np.ndarray, vy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every transport problem of one level at once.

    The problem of parents (a, b) is the block ``[bx[a]:bx[a+1],
    by[b]:by[b+1]]`` of ``cost``, with masses ``mu`` and ``nu`` over the
    same ranges; returns the parents' values and the plans, block for block.
    Pairs are grouped by shape and solved in batches of at most
    ``_LEVEL_BATCH``, which bounds the simplex's memory; its problems list
    their rows and columns in the value order of ``vx`` and ``vy``.  Costs
    are sums of step costs of finite values, so an infinite one is an
    OverflowError; a NaN cost, an unbalanced problem, a negative mass or a
    side with no atom is a ValueError.
    """
    if not np.isfinite(cost).all():
        if np.isnan(cost).any():
            raise ValueError("cost entries must be finite")
        raise OverflowError("nodewise costs overflow: the values are too far apart for this order")
    kx, ky = np.diff(bx), np.diff(by)
    mu_sum = np.bincount(np.repeat(np.arange(kx.size), kx), weights=mu, minlength=kx.size)
    nu_sum = np.bincount(np.repeat(np.arange(ky.size), ky), weights=nu, minlength=ky.size)
    unbalanced = np.argwhere(~(np.abs(mu_sum[:, None] - nu_sum[None, :]) <= BALANCE_TOL))  # NaN fails
    if unbalanced.size:
        a, b = unbalanced[0]
        raise InfeasibleError(f"marginal masses {float(mu_sum[a])!r} and {float(nu_sum[b])!r} do not balance")
    masses = np.concatenate([mu, nu])
    if not (masses >= 0.0).all():   # a negative mass would be clipped to 0 in its plan; NaN fails too
        raise ValueError(f"mass {masses[~(masses >= 0.0)][0].item()!r} is not >= 0")
    # sorted(set(...)), not np.unique, which imports numpy.ma (2 MB) on first use
    sizes_x, sizes_y = sorted(set(kx.tolist())), sorted(set(ky.tolist()))
    if not sizes_x[0] or not sizes_y[0]:
        raise ValueError("a transport problem needs an atom on each side")
    values = np.empty((kx.size, ky.size))
    plans = np.zeros(cost.shape)
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


def solve_transport(mu_masses, nu_masses, cost) -> tuple[float, np.ndarray]:
    """Optimal plan between raw mass vectors; no atom-size restrictions.

    The level solve of a single problem, behind :func:`w_distance`, with the
    atoms' positions as their values, so that the north-west corner takes
    them in the order given.  Any non-finite cost is a ValueError.
    """
    mu_m, nu_m, cmat = (np.asarray(arr, dtype=float) for arr in (mu_masses, nu_masses, cost))
    n, m = mu_m.size, nu_m.size
    if cmat.shape != (n, m):
        raise ValueError(f"cost has shape {cmat.shape}, expected {(n, m)}")
    try:
        values, plan = _solve_level(mu_m, nu_m, np.array([0, n]), np.array([0, m]), cmat,
                                    np.arange(n)[:, None], np.arange(m)[:, None])
    except OverflowError:   # raw costs: an infinite one is no overflow of values
        raise ValueError("cost entries must be finite") from None
    return float(values[0, 0]), plan


def w_distance(mu: DiscreteLaw, nu: DiscreteLaw, cost) -> tuple[float, TransportPlan]:
    """Minimal total transport cost between two discrete laws.

    ``cost`` is the ground-cost matrix (typically a p-th power of distances);
    the returned value is ``sum_ij plan_ij cost_ij`` and the caller takes the
    1/p root.  Marginals that do not balance are rejected.
    """
    value, plan = solve_transport(mu.masses, nu.masses, cost)
    tp = TransportPlan(
        matrix=tuple(tuple(float(v) for v in row) for row in plan),
        source_masses=mu.masses,
        target_masses=nu.masses,
    )
    return value, tp
