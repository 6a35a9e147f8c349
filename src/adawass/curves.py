"""Curves of processes: geodesics, energies, common-space flows, Skorokhod.

A grid curve is a finite family of processes indexed by grid points in
[0,1].  A common-space flow realizes such a curve on one product tree: the
tree carries a value labelling per grid point, adaptedness is structural
because labels live on nodes, and particle paths interpolate linearly in
the value space between grid points.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Mapping, Sequence

import numpy as np

from .bicausal import (
    MAX_PRODUCT_LEAVES,
    MulticausalCoupling,
    SizeGuardError,
    _step_costs,
    aw_distance,
    glue,
)
from .trees import (TreeProcess, _LevelValues, _check_order, _check_shapes, _left_sum, _segment_sums,
                    process_with_values)

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

# Finest dyadic grid: about a million points, each one a process of the
# geodesic; level 40 alone would be 2**40 + 1 floats, more than memory holds.
MAX_DYADIC_LEVEL = 20


def dyadic_grid(level: int) -> tuple[float, ...]:
    """The grid i / 2**level, i = 0..2**level, for a level in 0..MAX_DYADIC_LEVEL."""
    if not 0 <= level <= MAX_DYADIC_LEVEL:
        raise ValueError(f"dyadic level must be in 0..{MAX_DYADIC_LEVEL}, got {level}")
    n = 2**level
    return tuple(i / n for i in range(n + 1))


def _check_grid(grid: Sequence[float]) -> tuple[float, ...]:
    g = tuple(float(u) for u in grid)
    if len(g) < 2 or g[0] != 0.0 or g[-1] != 1.0:
        raise ValueError(f"grid must run from 0 to 1, got {g}")
    if any(not a < b for a, b in zip(g, g[1:])):  # so that a NaN point fails too
        raise ValueError("grid must be strictly increasing")
    return g


@dataclass(frozen=True)
class GridCurve:
    """Finitely many processes along a grid 0 = u_0 < ... < u_n = 1."""

    grid: tuple[float, ...]
    processes: tuple[TreeProcess, ...]
    p: float

    def __post_init__(self):
        _check_order(self.p)
        object.__setattr__(self, "grid", _check_grid(self.grid))
        object.__setattr__(self, "processes", tuple(self.processes))
        if len(self.processes) != len(self.grid):
            raise ValueError("one process per grid point required")
        for proc in self.processes[1:]:
            _check_shapes(self.processes[0], proc)


@dataclass(frozen=True)
class CommonSpaceFlow:
    """A product tree with one adapted value labelling per grid point.

    Each labelling is kept as one float array per level of ``base``
    (``labels[i].levels[t - 1]``, a row per node of ``base.level(t)``) and
    reads as a Mapping from node id to label tuple, keys in layout order.
    Labellings given as Mappings are gathered into that form; every one
    must label each non-root node, all with the same value dims.  The
    flow stores ``base`` relabelled with ``labels[0]``, so its process at
    the first grid point is ``base``.  The grid runs strictly increasing
    from 0 to 1, and ``interpolation``, the rule between grid points, is
    "linear" or "constant".
    """

    base: TreeProcess
    grid: tuple[float, ...]
    labels: tuple[Mapping[int, tuple[float, ...]], ...]
    p: float
    interpolation: str = "linear"
    targets: tuple[TreeProcess | None, ...] | None = None
    coupling: MulticausalCoupling | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "grid", _check_grid(self.grid))
        if self.interpolation not in ("linear", "constant"):
            raise ValueError(f"interpolation must be 'linear' or 'constant', got {self.interpolation!r}")
        if len(self.labels) != len(self.grid):
            raise ValueError(f"{len(self.labels)} labellings for a grid of {len(self.grid)} points")
        labels = []
        for i, lab in enumerate(self.labels):
            try:
                labels.append(_LevelValues(self.base, lab))
            except ValueError as exc:
                raise ValueError(f"labelling {i}: {exc}") from None
        base = process_with_values(self.base, labels[0])
        for i, lab in enumerate(labels):
            dims = tuple(arr.shape[1] for arr in lab.levels)
            if dims != base.value_dims:
                raise ValueError(f"labelling {i} has value dims {dims}, the base tree {base.value_dims}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "labels", tuple(labels))

    def process_at(self, i: int) -> TreeProcess:
        """The filtered process read off the labels at grid index i."""
        if i == 0:
            return self.base
        return process_with_values(self.base, self.labels[i])

    def label_path(self, leaf: int, i: int) -> tuple[tuple[float, ...], ...]:
        """Particle position of scenario ``leaf`` at grid index i."""
        base = self.base
        if leaf not in base.leaf_index:
            raise ValueError(f"node {leaf!r} is not a leaf of the base tree")
        j = base.leaf_index[leaf]
        return tuple(tuple(arr[anc[j]].tolist())
                     for arr, anc in zip(self.labels[i].levels, base.leaf_ancestors[1:]))

    def labels_at(self, u: float) -> dict[int, tuple[float, ...]]:
        """Labels at an arbitrary parameter, following the interpolation rule;
        parameters outside the grid take the nearest end's labels."""
        if math.isnan(u):
            raise ValueError(f"u must be a number, got {u}")
        g = self.grid
        k = bisect.bisect_right(g, u) - 1
        if k < 0 or k == len(g) - 1 or g[k] == u or self.interpolation == "constant":
            return dict(self.labels[max(k, 0)])
        w = (u - g[k]) / (g[k + 1] - g[k])
        levels = zip(self.labels[k].levels, self.labels[k + 1].levels)
        return dict(_LevelValues(self.base, [(1.0 - w) * a + w * b for a, b in levels]))

    def with_labels(self, index: int, new_labels: Mapping[int, tuple[float, ...]]) -> "CommonSpaceFlow":
        """Copy of the flow with the labelling at one grid index replaced."""
        labels = list(self.labels)
        labels[index] = new_labels
        return replace(self, labels=labels)


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
    ends = list(zip(coupling.factor_values(0), coupling.factor_values(1)))
    labels = [[(1.0 - u) * a + u * b for a, b in ends] for u in g]
    targets = (x,) + (None,) * (len(g) - 2) + (y,)
    return CommonSpaceFlow(base=coupling.product, grid=g, labels=labels, p=p,
                           targets=targets, coupling=coupling)


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
    return _riemann_sum(metric_derivative(curve), curve.p)


def _riemann_sum(quotients: Sequence[tuple[tuple[float, float], float]], p: float) -> float:
    """``p_energy`` from the rows of ``metric_derivative``, summed in grid order."""
    return _left_sum([(hi - lo) * quot**p for (lo, hi), quot in quotients])


def _particle_levels(flow: CommonSpaceFlow) -> list[tuple[np.ndarray, np.ndarray]]:
    """The particle paths of a flow as arrays, one pair per level t = 1..T.

    ``labels[i, k]`` is the label at grid index i of node ``base.level(t)[k]``
    and ``anc[j]`` the position in ``base.level(t)`` of the ancestor of leaf
    ``base.leaves[j]``, so ``labels[i, anc[j]]`` is step t of
    ``label_path(base.leaves[j], i)``.  Levels stay apart because value dims
    can differ between levels.
    """
    return [(np.stack([lab.levels[t - 1] for lab in flow.labels]), flow.base.leaf_ancestors[t])
            for t in range(1, flow.base.depth + 1)]


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
    _check_order(p)
    g = flow.grid
    # summed particle by particle and interval by interval
    return _left_sum(_particle_terms(flow, p, [(b - a) ** (1.0 - p) for a, b in zip(g, g[1:])]))


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
    terms = _particle_terms(flow, p, np.ones(len(flow.grid) - 1)).T   # per interval, over the particles
    rhs = _segment_sums(terms.ravel(), np.full(len(terms), terms.shape[1]))
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
    procs = curve.processes
    plans = [aw_distance(a, b, curve.p)[1] for a, b in zip(procs, procs[1:])]
    return _glued_flow(curve, plans, interpolation, max_leaves)


def _glued_flow(curve: GridCurve, plans, interpolation: str, max_leaves: int) -> CommonSpaceFlow:
    """``represent_curve`` from the optimal plans of the curve's consecutive processes."""
    coupling = glue(plans, max_leaves=max_leaves)
    labels = [coupling.factor_values(i) for i in range(len(curve.grid))]
    return CommonSpaceFlow(base=coupling.product, grid=curve.grid, labels=labels, p=curve.p,
                           interpolation=interpolation, targets=curve.processes, coupling=coupling)


def _weights(weights: Sequence[float], n: int) -> tuple[float, ...]:
    """Explicit weights as floats: n of them, each positive and finite."""
    used = tuple(float(w) for w in weights)
    if len(used) != n:
        raise ValueError(f"{n} weights required, got {len(used)}")
    if not all(0.0 < w < math.inf for w in used):
        raise ValueError("weights must be positive and finite")
    return used


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
        total_d = _left_sum(dists)
        if total_d <= 0.0:
            return 0.0, tuple(0.0 for _ in dists)
        used = tuple(d / total_d for d in dists)
    else:
        used = _weights(weights, len(dists))
        s = _left_sum(used)
        if s > 1.0 + WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {s!r} > 1")
    return _left_sum([b ** (1.0 - p) * d**p for d, b in zip(dists, used) if d > 0.0]), used


def skorokhod(seq: Sequence[TreeProcess], limit: TreeProcess, p: float,
              weights: Sequence[float] | None = None,
              max_leaves: int = MAX_PRODUCT_LEAVES) -> CommonSpaceFlow:
    """Common-space representation of a convergent sequence of processes.

    Places the sequence along a grid whose spacings are the weights (the
    normalized consecutive adapted distances when not given, a process at
    distance zero from its predecessor dropped), appends the limit at
    parameter one, and realizes the resulting grid curve through
    displacement interpolation on each segment.
    """
    if not seq:
        raise ValueError("empty sequence")
    chain = list(seq) + [limit]
    if weights is not None:
        used = _weights(weights, len(chain) - 1)
        s = _left_sum(used)
        if abs(s - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {s!r}, expected 1")
        # every process kept, and the curve built before any solve, so that a bad grid raises first
        curve = GridCurve(grid=(*accumulate([w / s for w in used[:-1]], initial=0.0), 1.0),
                          processes=tuple(chain), p=p)
    solved = [aw_distance(a, b, p) for a, b in zip(chain, chain[1:])]
    ends = list(range(1, len(chain)))   # the legs' ends, as positions in chain
    if weights is None:
        total_d = _left_sum([d for d, _ in solved])
        # drop processes reached with a zero-length leg; they are equivalent
        # to their predecessor and would collapse the grid
        ends = [j for j in ends if solved[j - 1][0] > 0.0]
        used = [solved[j - 1][0] / total_d for j in ends[:-1]]
        ends[-1:] = [len(chain) - 1]    # the last end is the limit itself, kept or dropped
        curve = GridCurve(grid=(*accumulate(used, initial=0.0), 1.0),
                          processes=tuple(chain[j] for j in [0] + ends), p=p)
    # a leg that spans a dropped process is solved anew
    plans = [solved[i][1] if j == i + 1 else aw_distance(chain[i], chain[j], p)[1]
             for i, j in zip([0] + ends[:-1], ends)]
    return _glued_flow(curve, plans, "linear", max_leaves)
