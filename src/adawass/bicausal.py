"""Adapted Wasserstein distance and bicausal couplings on scenario trees.

Two independent routes compute the same optimum.  The main solver runs a
backward induction over pairs of tree nodes, solving one small transport
problem per pair; this is exact because bicausal couplings of tree-filtered
processes factorize into successive conditional couplings.  The oracle
solves one linear program over path-pair masses whose causality conditions
enter as linear product identities against the fixed marginal laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .discrete_ot import (  # noqa: F401  (solve_transport: perfbench/tracer.py wraps it here)
    BALANCE_TOL,
    MARGINAL_TOL,
    InfeasibleError,
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
    bicausal.
    """

    x: TreeProcess
    y: TreeProcess
    p: float
    pair_masses: Mapping[tuple[int, int], float]
    value: float
    kernels: Mapping[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...], np.ndarray]] | None = None

    @classmethod
    def from_pair_masses(cls, x: TreeProcess, y: TreeProcess, p: float,
                         masses: Mapping[tuple[int, int], float]) -> "BicausalPlan":
        _check_pair(x, y)
        xi = {k: i for i, k in enumerate(x.leaves)}
        yi = {l: j for j, l in enumerate(y.leaves)}
        try:
            i = np.array([xi[k] for k, _ in masses], dtype=np.intp)
            j = np.array([yi[l] for _, l in masses], dtype=np.intp)
        except KeyError as exc:
            raise ValueError(f"plan lists a pair with a non-leaf node {exc}") from None
        weighted = np.fromiter(masses.values(), float, len(masses)) * _path_costs(x, y, p, i, j)
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
        xi = {k: i for i, k in enumerate(self.x.leaves)}
        yi = {l: j for j, l in enumerate(self.y.leaves)}
        for (k, l), mass in self.pair_masses.items():
            m[xi[k], yi[l]] = mass
        return m

    def effective_kernels(self):
        """Stored kernels, or kernels recovered from cylinder masses."""
        if self.kernels is not None:
            return self.kernels
        return _kernels_from_masses(self)


def _step_costs(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """step_cost over the last axis of two value arrays: |a - b|_2^p."""
    return np.sqrt(((a - b) ** 2).sum(axis=-1)) ** p


def _path_costs(x: TreeProcess, y: TreeProcess, p: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Costs of the leaf pairs (x.leaves[i], y.leaves[j]), broadcast over i and j.

    The step costs (step_cost of the two values at each time) are added
    from the first step on.
    """
    total = 0.0
    for t in range(x.depth):
        vx = np.array([x.leaf_paths[k][t] for k in x.leaves])
        vy = np.array([y.leaf_paths[l][t] for l in y.leaves])
        total = total + _step_costs(vx[i], vy[j], p)
    return total


def _kernels_from_masses(plan: BicausalPlan):
    x, y = plan.x, plan.y
    cyl: dict[tuple[int, int], float] = {}
    for (k, l), m in plan.pair_masses.items():
        vk, vl = k, l
        for t in range(x.depth, -1, -1):
            cyl[(vk, vl)] = cyl.get((vk, vl), 0.0) + m
            if t == 0:
                break
            vk = x.node(vk).parent
            vl = y.node(vl).parent
    kernels = {}
    for t in range(x.depth):
        for vx in x.level(t):
            for vy in y.level(t):
                q = cyl.get((vx, vy), 0.0)
                if q <= 0.0:
                    continue
                cx, cy = x.children(vx), y.children(vy)
                mat = np.zeros((len(cx), len(cy)))
                for i, a in enumerate(cx):
                    for j, b in enumerate(cy):
                        mat[i, j] = cyl.get((a, b), 0.0) / q
                kernels[(vx, vy)] = (cx, cy, mat)
    return kernels


def _level_layout(proc: TreeProcess):
    """Nodes of every level with each parent's children contiguous.

    Returns, per level t, the node ids in that order and, for t < T, the
    bounds of every node's children within level t + 1.
    """
    order = [(proc.root_id,)]
    bounds = []
    for t in range(proc.depth):
        kids = [proc.children(v) for v in order[t]]
        bounds.append(np.cumsum([0] + [len(k) for k in kids]))
        order.append(tuple(c for k in kids for c in k))
    return order, bounds


def _solve_level(mu: np.ndarray, nu: np.ndarray, bx: np.ndarray, by: np.ndarray,
                 cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every nodewise problem of one level at once.

    ``cost`` is indexed by the children of the level on both sides; the
    problem of parents (a, b) is its block ``[bx[a]:bx[a+1], by[b]:by[b+1]]``
    with edge probabilities ``mu`` and ``nu`` over the same ranges.  Returns
    the parents' values and the plans, block for block.  The parent pairs
    are grouped by their numbers of children, and each group is solved in
    batches of at most ``_LEVEL_BATCH`` problems, which bounds the memory of
    the lockstep simplex.
    """
    if not np.isfinite(cost).all():
        raise ValueError("cost entries must be finite")
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
    for n in sorted(set(kx.tolist())):
        for m in sorted(set(ky.tolist())):
            pa, pb = (g.ravel() for g in np.meshgrid(
                np.flatnonzero(kx == n), np.flatnonzero(ky == m), indexing="ij"))
            for s in range(0, pa.size, _LEVEL_BATCH):
                a, b = pa[s:s + _LEVEL_BATCH], pb[s:s + _LEVEL_BATCH]
                rows = bx[a][:, None] + np.arange(n)
                cols = by[b][:, None] + np.arange(m)
                block = (rows[:, :, None], cols[:, None, :])
                values[a, b], plans[block] = _solve_batch(mu[rows], nu[cols], cost[block])
    return values, plans


def aw_distance(x: TreeProcess, y: TreeProcess, p: float) -> tuple[float, BicausalPlan]:
    """Adapted Wasserstein distance of order p with an optimal bicausal plan.

    Backward induction: at each pair of nodes the child distributions are
    coupled optimally against the one-step cost plus the continuation value;
    the root value is the p-th power of the distance.  The work runs a level
    at a time, on cost and value matrices over all node pairs of the level.
    """
    _check_pair(x, y)
    if p < 1.0:
        raise ValueError(f"order p must be >= 1, got {p}")
    T = x.depth
    order_x, bounds_x = _level_layout(x)
    order_y, bounds_y = _level_layout(y)
    plans: list[np.ndarray | None] = [None] * T
    values = None
    for t in range(T - 1, -1, -1):
        kids_x = [x.node(c) for c in order_x[t + 1]]
        kids_y = [y.node(c) for c in order_y[t + 1]]
        vx = np.array([n.value for n in kids_x])
        vy = np.array([n.value for n in kids_y])
        cost = _step_costs(vx[:, None], vy[None], p)
        if values is not None:
            cost += values
        values, plans[t] = _solve_level(
            np.array([n.prob for n in kids_x]), np.array([n.prob for n in kids_y]),
            bounds_x[t], bounds_y[t], cost,
        )

    total = float(values[0, 0])
    pos_x = {v: i for level in order_x for i, v in enumerate(level)}
    pos_y = {v: i for level in order_y for i, v in enumerate(level)}
    # top-down pass keeps only kernels of reachable pairs and forms path-pair masses
    kernels: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...], np.ndarray]] = {}
    current: dict[tuple[int, int], float] = {(x.root_id, y.root_id): 1.0}
    for t in range(T):
        bx, by = bounds_x[t], bounds_y[t]
        nxt: dict[tuple[int, int], float] = {}
        for (vx, vy), mass in current.items():
            ix, iy = pos_x[vx], pos_y[vy]
            cx, cy = x.children(vx), y.children(vy)
            mat = plans[t][bx[ix]:bx[ix + 1], by[iy]:by[iy + 1]].copy()
            kernels[(vx, vy)] = (cx, cy, mat)
            for i, a in enumerate(cx):
                for j, b in enumerate(cy):
                    if mat[i, j] > 0.0:
                        key = (a, b)
                        nxt[key] = nxt.get(key, 0.0) + mass * mat[i, j]
        current = nxt
    value = total ** (1.0 / p)
    plan = BicausalPlan(x=x, y=y, p=p, pair_masses=current, value=value, kernels=kernels)
    return value, plan


def _lp_rows(x: TreeProcess, y: TreeProcess):
    """Marginal plus linear causality rows for the path-pair LP."""
    lx, ly = x.leaves, y.leaves
    nx, ny = len(lx), len(ly)
    xi = {k: i for i, k in enumerate(lx)}
    yi = {l: j for j, l in enumerate(ly)}
    mu, nu = x.reach_prob, y.reach_prob

    under_x = {v: [k for k in lx if x.ancestor_at(k, t) == v]
               for t in range(1, x.depth) for v in x.level(t)}
    under_y = {w: [l for l in ly if y.ancestor_at(l, t) == w]
               for t in range(1, y.depth) for w in y.level(t)}

    rows: list[np.ndarray] = []
    rhs: list[float] = []

    for k in lx:
        row = np.zeros(nx * ny)
        row[xi[k] * ny:(xi[k] + 1) * ny] = 1.0
        rows.append(row)
        rhs.append(mu[k])
    for l in ly:
        row = np.zeros(nx * ny)
        row[yi[l]::ny] = 1.0
        rows.append(row)
        rhs.append(nu[l])

    T = x.depth
    for t in range(1, T):
        # causal: the partner's past may not reveal this side's future
        wlist = y.level(t)
        for v in x.level(t):
            kx = under_x[v]
            for w in wlist[:-1]:
                cols_w = [yi[l] for l in under_y[w]]
                for k in kx[:-1]:
                    row = np.zeros(nx * ny)
                    for j in cols_w:
                        row[xi[k] * ny + j] += mu[v]
                    for k2 in kx:
                        base = xi[k2] * ny
                        for j in cols_w:
                            row[base + j] -= mu[k]
                    rows.append(row)
                    rhs.append(0.0)
        # anticausal: the mirror family
        vlist = x.level(t)
        for w in y.level(t):
            ky = under_y[w]
            for v in vlist[:-1]:
                rows_v = [xi[k] for k in under_x[v]]
                for l in ky[:-1]:
                    row = np.zeros(nx * ny)
                    for i in rows_v:
                        row[i * ny + yi[l]] += nu[w]
                    for l2 in ky:
                        col = yi[l2]
                        for i in rows_v:
                            row[i * ny + col] -= nu[l]
                    rows.append(row)
                    rhs.append(0.0)
    return np.array(rows), np.array(rhs)


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
    masses: dict[tuple[int, int], float] = {}
    for i, k in enumerate(lx):
        for j, l in enumerate(ly):
            m = sol[i * ny + j]
            if m > _PRUNE:
                masses[(k, l)] = float(m)
    value = max(total, 0.0) ** (1.0 / p)
    plan = BicausalPlan(x=x, y=y, p=p, pair_masses=masses, value=value)
    return value, plan


def _group_matrices(proc: TreeProcess, t: int):
    """Leaf indices, ancestor index per leaf, and reach probabilities at level t."""
    nodes = proc.level(t)
    pos = {v: i for i, v in enumerate(nodes)}
    anc = np.array([pos[proc.ancestor_at(k, t)] for k in proc.leaves])
    indicator = np.zeros((len(nodes), len(proc.leaves)))
    indicator[anc, np.arange(len(proc.leaves))] = 1.0
    reach = np.array([proc.reach_prob[v] for v in nodes])
    return indicator, anc, reach


def check_bicausal(plan: BicausalPlan, tol: float = CAUSALITY_TOL) -> bool:
    """Verify marginal and two-sided causality identities of a plan."""
    x, y = plan.x, plan.y
    pi = plan.matrix()
    mu = np.array([x.reach_prob[k] for k in x.leaves])
    nu = np.array([y.reach_prob[l] for l in y.leaves])
    if np.abs(pi.sum(axis=1) - mu).max() > MARGINAL_TOL:
        return False
    if np.abs(pi.sum(axis=0) - nu).max() > MARGINAL_TOL:
        return False
    if pi.min() < -MARGINAL_TOL:
        return False
    for t in range(1, x.depth):
        gx, anc_x, reach_x = _group_matrices(x, t)
        gy, anc_y, reach_y = _group_matrices(y, t)
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

    def factor_marginal(self, i: int) -> dict[int, float]:
        out: dict[int, float] = {}
        for tup, m in self.masses.items():
            out[tup[i]] = out.get(tup[i], 0.0) + m
        return out


def glue(plans: Sequence[BicausalPlan], max_leaves: int = MAX_PRODUCT_LEAVES) -> MulticausalCoupling:
    """Concatenate consecutive bicausal plans into one multicausal coupling.

    The joint transition at a tuple of nodes composes the nodewise kernels
    Markov-chain style along the chain: the first coordinate moves jointly
    with the second through the first plan's kernel, each later coordinate
    moves conditionally on its predecessor through the next kernel.
    """
    if not plans:
        raise ValueError("no plans to glue")
    chain = [plans[0].x] + [pl.y for pl in plans]
    for i, pl in enumerate(plans):
        if pl.x is not chain[i] and pl.x != chain[i]:
            raise ValueError(f"plan {i} does not start at process {i} of the chain")
        _check_pair(pl.x, pl.y)
    kernels = [pl.effective_kernels() for pl in plans]
    T = chain[0].depth
    n = len(chain)

    nodes = [TreeNode(id=0, parent=None, time=0, value=None, prob=1.0)]
    node_tuple: dict[int, tuple[int, ...]] = {0: tuple(pr.root_id for pr in chain)}
    counter = [1]
    frontier = [0]
    dims = tuple(sum(pr.value_dims[t] for pr in chain) for t in range(T))

    for t in range(1, T + 1):
        new_frontier: list[int] = []
        for pid in frontier:
            tup = node_tuple[pid]
            # joint children: start from the leading pair kernel, extend by ratios
            cx0, cy0, mat0 = kernels[0][(tup[0], tup[1])]
            partial: list[tuple[list[int], float]] = []
            for i, a in enumerate(cx0):
                for j, b in enumerate(cy0):
                    if mat0[i, j] > 0.0:
                        partial.append(([a, b], float(mat0[i, j])))
            for k in range(1, n - 1):
                cxk, cyk, matk = kernels[k][(tup[k], tup[k + 1])]
                row_pos = {c: i for i, c in enumerate(cxk)}
                rowsums = matk.sum(axis=1)
                extended: list[tuple[list[int], float]] = []
                for prefix, wgt in partial:
                    r = row_pos[prefix[-1]]
                    if rowsums[r] <= 0.0:
                        continue
                    for j, b in enumerate(cyk):
                        q = matk[r, j]
                        if q > 0.0:
                            extended.append((prefix + [b], wgt * (q / rowsums[r])))
                partial = extended
            total = math.fsum(w for _, w in partial)
            if total <= 0.0:
                raise RuntimeError(f"degenerate kernel at product node {pid}")
            # a two-process product keeps the raw kernel masses (exact for
            # exactly-representable inputs); longer chains normalize away the
            # common-mode rounding of the ratio products
            if n == 2:
                total = 1.0
            for child_tup, wgt in partial:
                nid = counter[0]
                counter[0] += 1
                value = tuple(
                    v for proc, cid in zip(chain, child_tup) for v in proc.node(cid).value
                )
                nodes.append(TreeNode(id=nid, parent=pid, time=t, value=value, prob=wgt / total))
                node_tuple[nid] = tuple(child_tup)
                new_frontier.append(nid)
            if len(new_frontier) > max_leaves:
                raise SizeGuardError(
                    f"product tree exceeds {max_leaves} leaves at level {t}"
                )
        frontier = new_frontier

    product = TreeProcess(depth=T, value_dims=dims, nodes=tuple(nodes))
    reach = product.reach_prob
    masses = {node_tuple[pid]: reach[pid] for pid in frontier}
    return MulticausalCoupling(
        processes=tuple(chain),
        masses=masses,
        plans=tuple(plans),
        product=product,
        node_tuple=node_tuple,
    )


def check_multicausal(coupling: MulticausalCoupling, tol: float = CAUSALITY_TOL) -> bool:
    """Verify factor marginals and every multicausal product identity."""
    procs = coupling.processes
    n = len(procs)
    T = procs[0].depth
    items = list(coupling.masses.items())

    for i, proc in enumerate(procs):
        marg = coupling.factor_marginal(i)
        for leaf in proc.leaves:
            if abs(marg.get(leaf, 0.0) - proc.reach_prob[leaf]) > MARGINAL_TOL:
                return False

    for i in range(n):
        proc = procs[i]
        for t in range(1, T):
            # gamma(cylinder tuple) indexed by (other-coordinate ancestors)
            joint_full: dict[tuple, float] = {}
            joint_cyl: dict[tuple, float] = {}
            for tup, m in items:
                others = tuple(
                    procs[j].ancestor_at(tup[j], t) for j in range(n) if j != i
                )
                key_full = (tup[i],) + others
                joint_full[key_full] = joint_full.get(key_full, 0.0) + m
                key_cyl = (proc.ancestor_at(tup[i], t),) + others
                joint_cyl[key_cyl] = joint_cyl.get(key_cyl, 0.0) + m
            # cylinder keys dominate full keys, so iterating them covers all
            # identities with a nonzero side
            for key_cyl, g_cyl in joint_cyl.items():
                v, others = key_cyl[0], key_cyl[1:]
                for leaf in proc.leaves:
                    if proc.ancestor_at(leaf, t) != v:
                        continue
                    g_full = joint_full.get((leaf,) + others, 0.0)
                    lhs = g_full * proc.reach_prob[v]
                    rhs = g_cyl * proc.reach_prob[leaf]
                    if abs(lhs - rhs) > tol:
                        return False
    return True


def factor_plan(coupling: MulticausalCoupling, i: int, p: float) -> BicausalPlan:
    """Coupling of factor i with the common-space process carrying its labels.

    Pairs every product leaf with its i-th coordinate leaf; the partner
    process is the product tree relabelled with the factor's values.
    """
    proc = coupling.processes[i]
    labels = {
        pid: proc.node(coupling.node_tuple[pid][i]).value
        for pid in coupling.node_tuple
        if coupling.product.node(pid).parent is not None
    }
    lifted = process_with_values(coupling.product, labels, value_dims=proc.value_dims)
    masses: dict[tuple[int, int], float] = {}
    reach = coupling.product.reach_prob
    for pid in coupling.product.leaves:
        key = (coupling.node_tuple[pid][i], pid)
        masses[key] = masses.get(key, 0.0) + reach[pid]
    return BicausalPlan.from_pair_masses(proc, lifted, p, masses)
