"""Exact optimal transport between finite discrete laws.

Transport problems go to a transportation simplex: a north-west-corner
start (no phase one), u-v potentials on the basis tree, the most negative
reduced cost entering with lowest-index tie-breaking, the smallest-index
blocking cell leaving, and Bland's rule after a run of degenerate pivots,
so the iteration cannot cycle.  One-row, one-column and 2x2 problems have
closed forms; the 2x2 one is batched so that callers can solve many at
once.  The dense two-phase simplex ``lp_solve`` serves only the path-pair
oracle: entering columns take the largest reduced cost with index
tie-breaking and leaving rows follow the lexicographic ratio test, which
keeps it cycle-free on the heavily degenerate causality polytopes.  Both
solvers pivot deterministically, so together with a fixed atom ordering the
same input always gives the same optimal vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "DiscreteLaw",
    "TransportPlan",
    "InfeasibleError",
    "UnboundedError",
    "lp_solve",
    "solve_transport",
    "w_distance",
]

MASS_TOL = 1e-12
MARGINAL_TOL = 1e-10
_MIN_ATOM = 1e-14
# Marginal totals may differ by this much before a problem counts as
# unbalanced: each side is normalized on its own (trees to within 1e-12).
BALANCE_TOL = 1e-9
# Reduced costs above -_OPTIMALITY_TOL * max|cost| count as optimal: potentials
# summed along a basis path carry rounding near (n + m) * 1e-16 * max|cost|,
# far below it, and stopping there leaves the value within it of the optimum.
_OPTIMALITY_TOL = 1e-12
# A 2x2 cost gap c00 - c01 - c10 + c11 at or below this is a tie and takes
# the upper endpoint: gaps this small are rounding noise for costs of order one.
_GAP_TOL = 1e-14
# Bland's rule takes over after this many degenerate pivots in a row per row
# and column node: the most negative reduced cost needs fewer pivots on
# degenerate problems, Bland's rule cannot cycle.
_BLAND_AFTER = 1
# Pivot cap per cell; Bland's rule already rules out cycling, so hitting it
# means a defect, which the iteration-limit error reports.
_MAX_PIVOTS_PER_CELL = 50


class InfeasibleError(ValueError):
    """The constraint system admits no feasible point."""


class UnboundedError(ValueError):
    """The objective is unbounded below on the feasible set."""


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
            raise ValueError("degenerate atom mass below 1e-14")
        if abs(sum(self.masses) - 1.0) > MASS_TOL * max(1.0, len(self.masses)):
            raise ValueError(f"masses sum to {sum(self.masses)!r}, expected 1")

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

    def marginal_errors(self) -> tuple[float, float]:
        m = self.as_array()
        row = float(np.abs(m.sum(axis=1) - np.asarray(self.source_masses)).max())
        col = float(np.abs(m.sum(axis=0) - np.asarray(self.target_masses)).max())
        return row, col

    def is_feasible(self, tol: float = MARGINAL_TOL) -> bool:
        row, col = self.marginal_errors()
        return row <= tol and col <= tol and self.as_array().min() >= -tol


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
    active = pos[np.nonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))[0]]
    if active.size > 1:
        for c in range(tableau.shape[1] - 1):
            vals = tableau[active, c] / colvals[active]
            low = vals.min()
            active = active[np.nonzero(vals <= low + 1e-12 * (1.0 + abs(low)))[0]]
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
    raise RuntimeError("simplex iteration limit exceeded")


def lp_solve(c: Sequence[float], a_mat, b: Sequence[float],
             equality: Sequence[bool] | None = None,
             tol: float = 1e-10) -> tuple[float, np.ndarray]:
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
    _simplex_iterate(tableau, basis, allowed=n + n_slack, tol=tol, max_iter=200 * (m + total))
    if tableau[m, -1] > 1e-8 * max(1.0, float(rhs.max()) if m else 1.0):
        raise InfeasibleError(f"phase-one residual {tableau[m, -1]!r}")

    # drive artificial variables out of the basis where possible
    for i in range(m):
        if basis[i] >= n + n_slack:
            cols = np.nonzero(np.abs(tableau[i, : n + n_slack]) > tol)[0]
            if cols.size:
                _pivot(tableau, basis, i, int(cols[0]))

    # phase two objective row for the true cost
    cost_ext = np.zeros(total)
    cost_ext[:n] = cost
    tableau[m, :] = cost_ext[basis] @ tableau[:m, :]
    tableau[m, :total] -= cost_ext
    scale = max(1.0, float(np.abs(cost).max()) if cost.size else 1.0)
    _simplex_iterate(tableau, basis, allowed=n + n_slack, tol=tol * scale, max_iter=200 * (m + total))

    x = np.zeros(total)
    x[basis] = tableau[:m, -1]
    solution = x[:n]
    value = float(cost @ solution)
    return value, solution


def _transport_simplex(mu: np.ndarray, nu: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Transportation simplex from the north-west corner; returns the plan.

    The basis is a spanning tree of n + m - 1 cells on the row and column
    nodes, so every pivot is a walk along a tree path and needs no tableau.
    Each pivot recomputes the potentials u_i + v_j = c_ij from row 0, enters
    the cell of most negative reduced cost c_ij - u_i - v_j (lowest flat
    index among ties) and moves mass round the cycle it closes; the leaving
    cell is the blocking cell of smallest row-major index.  After n + m
    degenerate pivots in a row the entering cell is the lowest-index
    improving one (Bland's rule) until a pivot moves mass, so the pivot
    sequence cannot cycle.
    """
    n, m = cost.shape
    c = cost.tolist()
    # north-west corner with degenerate fill: one index advances per cell
    flow: dict[tuple[int, int], float] = {}
    adj: list[list[int]] = [[] for _ in range(n + m)]   # rows 0..n-1, columns n..n+m-1
    rows, cols = mu.tolist(), nu.tolist()
    i = j = 0
    while True:
        take = min(rows[i], cols[j])
        flow[(i, j)] = take
        adj[i].append(n + j)
        adj[n + j].append(i)
        if i == n - 1 and j == m - 1:
            break
        if j == m - 1 or (i < n - 1 and rows[i] <= cols[j]):
            cols[j] -= take
            i += 1
        else:
            rows[i] -= take
            j += 1

    tol = _OPTIMALITY_TOL * float(np.abs(cost).max())
    pot = [0.0] * (n + m)
    up = [-1] * (n + m)
    depth = [0] * (n + m)
    degenerate = 0
    for _ in range(_MAX_PIVOTS_PER_CELL * n * m):
        # potentials along the basis tree rooted at row 0
        up[0] = -1
        order = [0]
        for a in order:
            for b in adj[a]:
                if b != up[a]:
                    up[b], depth[b] = a, depth[a] + 1
                    pot[b] = (c[a][b - n] if a < n else c[b][a - n]) - pot[a]
                    order.append(b)
        reduced = (cost - np.add.outer(pot[:n], pot[n:])).ravel()
        if degenerate < _BLAND_AFTER * (n + m):
            k = int(reduced.argmin())
            if not reduced[k] < -tol:
                break
        else:
            improving = np.flatnonzero(reduced < -tol)
            if improving.size == 0:
                break
            k = int(improving[0])
        ei, ej = divmod(k, m)
        # the cycle: tree paths from both ends of the entering cell to their apex;
        # counted from either end, odd cells lose mass and even cells gain it
        a, b = ei, n + ej
        side_a: list[tuple[int, int]] = []
        side_b: list[tuple[int, int]] = []
        while a != b:
            if depth[a] >= depth[b]:
                side_a.append((a, up[a] - n) if a < n else (up[a], a - n))
                a = up[a]
            else:
                side_b.append((b, up[b] - n) if b < n else (up[b], b - n))
                b = up[b]
        losing = side_a[0::2] + side_b[0::2]
        theta = min(flow[cell] for cell in losing)
        leave = min(cell for cell in losing if flow[cell] == theta)
        for cell in losing:
            flow[cell] -= theta
        for cell in side_a[1::2] + side_b[1::2]:
            flow[cell] += theta
        flow[(ei, ej)] = theta
        del flow[leave]
        li, lj = leave
        adj[li].remove(n + lj)
        adj[n + lj].remove(li)
        adj[ei].append(n + ej)
        adj[n + ej].append(ei)
        degenerate = degenerate + 1 if theta == 0.0 else 0
    else:
        raise RuntimeError("transport simplex iteration limit exceeded")

    plan = np.zeros((n, m))
    for (i, j), f in flow.items():
        plan[i, j] = f
    return plan


def _transport_2x2(mu: np.ndarray, nu: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Closed form for a batch of 2x2 problems; plans of shape (..., 2, 2).

    ``mu`` and ``nu`` have shape (..., 2) and ``cost`` (..., 2, 2), all
    broadcast together.  Each polytope has one parameter, the mass on cell
    (0, 0), between ``lo`` and ``hi``; the endpoint is chosen by the cost gap.
    """
    mu0, mu1, nu0 = mu[..., 0], mu[..., 1], nu[..., 0]
    lo = np.maximum(0.0, mu0 + nu0 - 1.0)
    hi = np.minimum(mu0, nu0)
    gap = cost[..., 0, 0] - cost[..., 0, 1] - cost[..., 1, 0] + cost[..., 1, 1]
    theta = np.where(gap > _GAP_TOL, lo, hi)
    plan = np.stack(np.broadcast_arrays(theta, mu0 - theta, nu0 - theta, mu1 - nu0 + theta), axis=-1)
    return np.maximum(plan, 0.0).reshape(plan.shape[:-1] + (2, 2))


def solve_transport(mu_masses, nu_masses, cost) -> tuple[float, np.ndarray]:
    """Optimal plan between raw mass vectors; no atom-size restrictions.

    Internal workhorse behind :func:`w_distance` and the nodewise solves of
    the bicausal induction, where machine-epsilon atoms can legitimately
    appear on product trees.
    """
    mu_m = np.asarray(mu_masses, dtype=float)
    nu_m = np.asarray(nu_masses, dtype=float)
    cmat = np.array(cost, dtype=float)
    n, m = mu_m.size, nu_m.size
    if cmat.shape != (n, m):
        raise ValueError(f"cost has shape {cmat.shape}, expected {(n, m)}")
    if not np.isfinite(cmat).all():
        raise ValueError("cost entries must be finite")
    if abs(mu_m.sum() - nu_m.sum()) > BALANCE_TOL:
        raise InfeasibleError(
            f"marginal masses {mu_m.sum()!r} and {nu_m.sum()!r} do not balance"
        )
    if n == 1:
        plan = nu_m[None, :].copy()
    elif m == 1:
        plan = mu_m[:, None].copy()
    elif n == 2 and m == 2:
        plan = _transport_2x2(mu_m[None], nu_m[None], cmat[None])[0]
    else:
        plan = _transport_simplex(mu_m, nu_m, cmat)
    plan[plan < 0.0] = 0.0
    value = float((plan * cmat).sum())
    return value, plan


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
