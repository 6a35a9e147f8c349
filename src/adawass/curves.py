"""Curves of processes: geodesics, energies, common-space flows, Skorokhod.

A grid curve is a finite family of processes indexed by grid points in
[0,1].  A common-space flow realizes such a curve on one product tree: the
tree carries a value labelling per grid point, adaptedness is structural
because labels live on nodes, and particle paths interpolate linearly in
the value space between grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .bicausal import (
    MAX_PRODUCT_LEAVES,
    BicausalPlan,
    MulticausalCoupling,
    SizeGuardError,
    _factor_labels,
    _step_costs,
    aw_distance,
    glue,
)
from .trees import ShapeMismatchError, TreeProcess, process_with_values

__all__ = [
    "GridCurve",
    "CommonSpaceFlow",
    "IntervalSlack",
    "SizeGuardError",
    "dyadic_grid",
    "geodesic",
    "metric_derivative",
    "p_energy",
    "flow_energy",
    "verify_flow_ac",
    "represent_curve",
    "weighted_p_variation",
    "skorokhod",
]

# Slack on the sum of explicit weights (at most one in weighted_p_variation,
# exactly one in skorokhod).  Weights rounded to ten decimals (three times
# 0.3333333333) miss one by 1e-10 and pass; a weight left out or mistyped
# misses it by far more.
WEIGHT_SUM_TOL = 1e-9


def dyadic_grid(level: int) -> tuple[float, ...]:
    """The grid i / 2**level, i = 0..2**level."""
    n = 2**level
    return tuple(i / n for i in range(n + 1))


def _check_grid(grid: Sequence[float]) -> tuple[float, ...]:
    g = tuple(float(u) for u in grid)
    if len(g) < 2 or g[0] != 0.0 or g[-1] != 1.0:
        raise ValueError(f"grid must run from 0 to 1, got {g}")
    if any(b <= a for a, b in zip(g, g[1:])):
        raise ValueError("grid must be strictly increasing")
    return g


@dataclass(frozen=True)
class GridCurve:
    """Finitely many processes along a grid 0 = u_0 < ... < u_n = 1."""

    grid: tuple[float, ...]
    processes: tuple[TreeProcess, ...]
    p: float
    plans: tuple[BicausalPlan, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "grid", _check_grid(self.grid))
        object.__setattr__(self, "processes", tuple(self.processes))
        if self.plans is not None:
            object.__setattr__(self, "plans", tuple(self.plans))
        if len(self.processes) != len(self.grid):
            raise ValueError("one process per grid point required")
        first = self.processes[0]
        for proc in self.processes[1:]:
            if proc.depth != first.depth or proc.value_dims != first.value_dims:
                raise ShapeMismatchError("curve processes disagree in depth or dims")
        if self.plans is not None and len(self.plans) != len(self.grid) - 1:
            raise ValueError("one plan per grid interval required")


@dataclass(frozen=True)
class CommonSpaceFlow:
    """A product tree with one adapted value labelling per grid point."""

    base: TreeProcess
    grid: tuple[float, ...]
    labels: tuple[Mapping[int, tuple[float, ...]], ...]
    p: float
    interpolation: str = "linear"
    targets: tuple[TreeProcess | None, ...] | None = None
    coupling: MulticausalCoupling | None = field(default=None, compare=False, repr=False)

    def process_at(self, i: int) -> TreeProcess:
        """The filtered process read off the labels at grid index i."""
        if i == 0:
            return self.base
        return process_with_values(self.base, self.labels[i])

    def label_path(self, leaf: int, i: int) -> tuple[tuple[float, ...], ...]:
        """Particle position of scenario ``leaf`` at grid index i."""
        out = []
        nid = leaf
        while self.base.node(nid).parent is not None:
            out.append(self.labels[i][nid])
            nid = self.base.node(nid).parent
        out.reverse()
        return tuple(out)

    def labels_at(self, u: float) -> dict[int, tuple[float, ...]]:
        """Labels at an arbitrary parameter, following the interpolation rule."""
        g = self.grid
        if u <= g[0]:
            return dict(self.labels[0])
        if u >= g[-1]:
            return dict(self.labels[-1])
        k = max(i for i in range(len(g)) if g[i] <= u)
        if self.interpolation == "constant" or g[k] == u:
            return dict(self.labels[k])
        w = (u - g[k]) / (g[k + 1] - g[k])
        return {
            nid: tuple((1.0 - w) * a + w * b for a, b in zip(lab, self.labels[k + 1][nid]))
            for nid, lab in self.labels[k].items()
        }

    def with_labels(self, index: int, new_labels: Mapping[int, tuple[float, ...]]) -> "CommonSpaceFlow":
        """Copy of the flow with the labelling at one grid index replaced."""
        labels = list(self.labels)
        labels[index] = dict(new_labels)
        return _make_flow(self.base, self.grid, tuple(labels), self.p,
                          interpolation=self.interpolation, targets=self.targets,
                          coupling=self.coupling)


def _make_flow(shape_tree: TreeProcess, grid, labels, p, interpolation="linear",
               targets=None, coupling=None) -> CommonSpaceFlow:
    dims = tuple(
        len(labels[0][shape_tree.level(s)[0]]) for s in range(1, shape_tree.depth + 1)
    )
    base = process_with_values(shape_tree, labels[0], value_dims=dims)
    return CommonSpaceFlow(base=base, grid=tuple(grid), labels=tuple(dict(l) for l in labels),
                           p=p, interpolation=interpolation, targets=targets, coupling=coupling)


def geodesic(x: TreeProcess, y: TreeProcess, p: float, grid: Sequence[float],
             max_leaves: int = MAX_PRODUCT_LEAVES) -> CommonSpaceFlow:
    """Displacement interpolation between two processes as a common-space flow.

    The product tree of an optimal bicausal plan carries, at grid point u,
    the label (1-u) * x-value + u * y-value on every node; the resulting
    curve is a constant-speed geodesic for the adapted distance.
    """
    g = _check_grid(grid)
    _, plan = aw_distance(x, y, p)
    coupling = glue([plan], max_leaves=max_leaves)
    # a product node's value is its x-value followed by its y-value
    levels = list(zip(coupling.product.layout[1:], x.value_dims))
    labels = []
    for u in g:
        lab = {}
        for level, d in levels:
            v = level.values
            lab.update(zip(level.ids, map(tuple, ((1.0 - u) * v[:, :d] + u * v[:, d:]).tolist())))
        labels.append(lab)
    targets = (x,) + (None,) * (len(g) - 2) + (y,)
    return _make_flow(coupling.product, g, labels, p, targets=targets, coupling=coupling)


def metric_derivative(curve: GridCurve) -> list[tuple[tuple[float, float], float]]:
    """Difference quotients of the adapted distance on every grid interval."""
    out = []
    for i in range(len(curve.grid) - 1):
        lo, hi = curve.grid[i], curve.grid[i + 1]
        dist, _ = aw_distance(curve.processes[i], curve.processes[i + 1], curve.p)
        out.append(((lo, hi), dist / (hi - lo)))
    return out


def p_energy(curve: GridCurve) -> float:
    """Riemann sum of the p-th power of the grid difference quotients."""
    total = 0.0
    for (lo, hi), quot in metric_derivative(curve):
        total += (hi - lo) * quot**curve.p
    return total


def _particle_levels(flow: CommonSpaceFlow) -> list[tuple[np.ndarray, np.ndarray]]:
    """The particle paths of a flow as arrays, one pair per level t = 1..T.

    ``labels[i, k]`` is the label at grid index i of node ``base.level(t)[k]``
    and ``anc[j]`` the position in ``base.level(t)`` of the ancestor of leaf
    ``base.leaves[j]``, so ``labels[i, anc[j]]`` is step t of
    ``label_path(base.leaves[j], i)``.  Levels stay apart because value dims
    can differ between levels.
    """
    base = flow.base
    return [
        (np.array([[lab[nid] for nid in base.level(t)] for lab in flow.labels], dtype=float),
         base.leaf_ancestors[t])
        for t in range(1, base.depth + 1)
    ]


def _particle_terms(flow: CommonSpaceFlow, p: float, weights) -> np.ndarray:
    """Reach probability times interval weight times the p-th power of the
    particle step, per particle (leaf) and grid interval.

    A particle's step is summed over the levels as the p-metric of its two
    label paths.  Each entry is formed in the per-leaf loop's order of
    operations.
    """
    mass = flow.base.layout[-1].reach
    steps = 0.0
    for labels, anc in _particle_levels(flow):
        steps = steps + _step_costs(labels[:-1], labels[1:], p)[:, anc]
    return mass[:, None] * np.asarray(weights, dtype=float) * steps.T


def flow_energy(flow: CommonSpaceFlow, p: float) -> float:
    """Particle-level p-energy, exact for piecewise-linear particle paths."""
    g = flow.grid
    terms = _particle_terms(flow, p, [(b - a) ** (1.0 - p) for a, b in zip(g, g[1:])])
    # a running total, particle by particle and interval by interval
    return float(np.cumsum(terms)[-1])


@dataclass(frozen=True)
class IntervalSlack:
    lo: float
    hi: float
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def verify_flow_ac(flow: CommonSpaceFlow, p: float) -> list[IntervalSlack]:
    """Per-interval check that the common-space identity coupling dominates.

    ``lhs`` is the p-th power of the adapted distance between consecutive
    grid processes, ``rhs`` the expected p-th power of the particle step;
    the slack is nonnegative for every flow on a common filtered space.
    """
    # running totals over the particles, one per interval
    rhs = np.cumsum(_particle_terms(flow, p, np.ones(len(flow.grid) - 1)), axis=0)[-1]
    out = []
    for i in range(len(flow.grid) - 1):
        dist, _ = aw_distance(flow.process_at(i), flow.process_at(i + 1), p)
        out.append(IntervalSlack(lo=flow.grid[i], hi=flow.grid[i + 1], lhs=dist**p,
                                 rhs=float(rhs[i])))
    return out


def represent_curve(curve: GridCurve, interpolation: str = "linear",
                    max_leaves: int = MAX_PRODUCT_LEAVES) -> CommonSpaceFlow:
    """Realize a grid curve as a flow on one common filtered space.

    Optimal plans between consecutive processes are glued into a multicausal
    coupling of the whole chain; the product tree is labelled so that the
    process at grid point u_i reproduces the curve's process there, and
    labels interpolate between grid points.
    """
    if len(curve.grid) < 2:
        raise ValueError("need at least two grid points")
    procs = curve.processes
    plans = curve.plans or [aw_distance(a, b, curve.p)[1] for a, b in zip(procs, procs[1:])]
    coupling = glue(plans, max_leaves=max_leaves)
    labels = [_factor_labels(coupling, i) for i in range(len(curve.grid))]
    return _make_flow(coupling.product, curve.grid, labels, curve.p,
                      interpolation=interpolation, targets=procs,
                      coupling=coupling)


def weighted_p_variation(seq: Sequence[TreeProcess], p: float,
                         weights: Sequence[float] | None = None) -> tuple[float, tuple[float, ...]]:
    """Weighted p-variation sum of consecutive adapted distances.

    With explicit weights b the sum is  sum_n b_n^(1-p) d_n^p  over the
    consecutive distances d_n.  Without weights the canonical choice
    b_n = d_n / sum(d) is used, for which the sum equals (sum_n d_n)^p;
    zero-distance terms contribute nothing.
    """
    if len(seq) < 2:
        raise ValueError("need at least two processes")
    dists = [aw_distance(seq[i], seq[i + 1], p)[0] for i in range(len(seq) - 1)]
    if weights is None:
        total_d = sum(dists)
        if total_d <= 0.0:
            return 0.0, tuple(0.0 for _ in dists)
        used = tuple(d / total_d for d in dists)
    else:
        used = tuple(float(w) for w in weights)
        if len(used) != len(dists):
            raise ValueError(f"{len(dists)} weights required, got {len(used)}")
        if not all(0.0 < w < math.inf for w in used):
            raise ValueError("weights must be positive and finite")
        if sum(used) > 1.0 + WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {sum(used)!r} > 1")
    total = 0.0
    for d, b in zip(dists, used):
        if d > 0.0:
            total += b ** (1.0 - p) * d**p
    return total, used


def skorokhod(seq: Sequence[TreeProcess], limit: TreeProcess, p: float,
              weights: Sequence[float] | None = None,
              max_leaves: int = MAX_PRODUCT_LEAVES) -> CommonSpaceFlow:
    """Common-space representation of a convergent sequence of processes.

    Places the sequence along a grid whose spacings are the weights (the
    normalized consecutive adapted distances when not given), appends the
    limit at parameter one, and realizes the resulting grid curve through
    displacement interpolation on each segment.
    """
    if not seq:
        raise ValueError("empty sequence")
    chain = list(seq) + [limit]
    if weights is not None:
        used = [float(w) for w in weights]
        if len(used) != len(chain) - 1:
            raise ValueError(f"{len(chain) - 1} weights required, got {len(used)}")
        if not all(0.0 < w < math.inf for w in used):
            raise ValueError("weights must be positive and finite")
        s = sum(used)
        if abs(s - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {s!r}, expected 1")
        used = [w / s for w in used]
    else:
        dists = [aw_distance(chain[i], chain[i + 1], p)[0] for i in range(len(chain) - 1)]
        total_d = sum(dists)
        if total_d <= 0.0:
            chain = [chain[0], chain[-1]]
            used = [1.0]
        else:
            # drop processes reached with a zero-length leg; they are
            # equivalent to their predecessor and would collapse the grid
            kept = [chain[0]]
            used = []
            for proc, d in zip(chain[1:], dists):
                if d > 0.0:
                    kept.append(proc)
                    used.append(d / total_d)
            chain = kept
    grid = [0.0]
    for w in used:
        grid.append(grid[-1] + w)
    grid[-1] = 1.0
    curve = GridCurve(grid=tuple(grid), processes=tuple(chain), p=p)
    return represent_curve(curve, max_leaves=max_leaves)
