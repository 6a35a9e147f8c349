import itertools
import json
import math

import numpy as np
import pytest

from adawass import (
    BicausalPlan,
    GridCurve,
    InfeasibleError,
    ShapeMismatchError,
    SizeGuardError,
    TreeNode,
    TreeProcess,
    aw_distance,
    aw_distance_lp,
    build_process,
    chain_process,
    check_bicausal,
    check_multicausal,
    dyadic_grid,
    factor_plan,
    geodesic,
    glue,
    represent_curve,
    tree_to_dict,
    validate,
)
from adawass import bicausal, cli, curves, discrete_ot
from adawass.bicausal import MulticausalCoupling
from adawass.discrete_ot import MARGINAL_TOL, _solve_level, solve_transport

from conftest import (
    ancestor_at,
    assert_same_layout,
    epsilon_x,
    epsilon_y,
    layout_by_nodes,
    leaf_paths,
    pair_marginal,
    random_pair,
    random_process,
    step_cost,
    w_of_path_laws,
)


# -- aw_distance --------------------------------------------------------------

def value_ordered_solve(mu, nu, cost, vx, vy):
    """solve_transport as the level solve runs it: a problem for the
    transportation simplex (not 1 x m, n x 1 or 2 x 2) gets its children
    sorted by value, ties in tree order, and its plan is mapped back."""
    mu, nu, cost = np.asarray(mu), np.asarray(nu), np.asarray(cost)
    n, m = cost.shape
    if n == 1 or m == 1 or n * m == 4:
        return solve_transport(mu, nu, cost)
    rx = sorted(range(n), key=lambda i: tuple(vx[i]))
    ry = sorted(range(m), key=lambda j: tuple(vy[j]))
    value, sub = solve_transport(mu[rx], nu[ry], cost[np.ix_(rx, ry)])
    plan = np.empty_like(sub)
    plan[np.ix_(rx, ry)] = sub
    return value, plan


def nodewise_reference(x, y, p):
    """The backward induction one node pair at a time: the root value and the
    per-pair plans, and the root value of tree-order solves."""
    values, plans, tree_values = {}, {}, {}
    for t in range(x.depth - 1, -1, -1):
        for vx in x.level(t):
            cx = x.children(vx)
            for vy in y.level(t):
                cy = y.children(vy)
                cost = np.empty((len(cx), len(cy)))
                tree_cost = np.empty((len(cx), len(cy)))
                for i, a in enumerate(cx):
                    for j, b in enumerate(cy):
                        cost[i, j] = tree_cost[i, j] = step_cost(x.node(a).value, y.node(b).value, p)
                        if t + 1 < x.depth:
                            cost[i, j] += values[(a, b)]
                            tree_cost[i, j] += tree_values[(a, b)]
                mu, nu = [x.node(c).prob for c in cx], [y.node(c).prob for c in cy]
                values[(vx, vy)], plans[(vx, vy)] = value_ordered_solve(
                    mu, nu, cost, [x.node(c).value for c in cx], [y.node(c).value for c in cy])
                tree_values[(vx, vy)], _ = solve_transport(mu, nu, tree_cost)
    root = (x.root_id, y.root_id)
    return values[root], plans, tree_values[root]


def eager_top_down(x, y, plans):
    """Kernels and pair masses as the former dict-walking top-down pass built them."""
    kernels = {}
    current = {(x.root_id, y.root_id): 1.0}
    for _ in range(x.depth):
        nxt = {}
        for (vx, vy), mass in current.items():
            cx, cy = x.children(vx), y.children(vy)
            mat = plans[(vx, vy)].copy()
            kernels[(vx, vy)] = (cx, cy, mat)
            for i, a in enumerate(cx):
                for j, b in enumerate(cy):
                    if mat[i, j] > 0.0:
                        nxt[(a, b)] = nxt.get((a, b), 0.0) + mass * mat[i, j]
        current = nxt
    return kernels, current


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_level_wise_induction_matches_nodewise_reference(rng, p):
    # the level path batches every 2x2 pair; its values and kernels must equal
    # the per-pair solves bit for bit, on trees of mixed branching
    for _ in range(15):
        x, y = random_pair(rng, depth=3, max_branch=3)
        total, plans, tree_total = nodewise_reference(x, y, p)
        value, plan = aw_distance(x, y, p)
        assert value == total ** (1.0 / p)
        assert total == pytest.approx(tree_total, rel=1e-12, abs=0.0)
        for pair, (cx, cy, mat) in plan.kernels.items():
            assert (cx, cy) == (x.children(pair[0]), y.children(pair[1]))
            assert mat.tobytes() == plans[pair].tobytes()


def test_level_solve_matches_per_pair_solve_transport(rng, monkeypatch):
    # one level of 12 x 10 parents: with 1..3 children most pairs go through
    # the batched 2x2 closed form; with 1..5 several general shapes form,
    # n != m among them, and a batch size of 5 cuts every group into batches;
    # values on a coarse grid tie, in the first coordinate or in both
    for choices, batch in (([1, 2, 2, 3], 1024), ([1, 2, 3, 4, 5], 1024), ([1, 2, 3, 4, 5], 5)):
        monkeypatch.setattr(discrete_ot, "_LEVEL_BATCH", batch)
        kx, ky = rng.choice(choices, size=12), rng.choice(choices, size=10)
        bx, by = np.concatenate([[0], np.cumsum(kx)]), np.concatenate([[0], np.cumsum(ky)])
        mu = np.concatenate([w / w.sum() for w in (rng.uniform(0.1, 1.0, k) for k in kx)])
        nu = np.concatenate([w / w.sum() for w in (rng.uniform(0.1, 1.0, k) for k in ky)])
        vx = rng.integers(0, 3, size=(bx[-1], 2)).astype(float)
        vy = rng.integers(0, 3, size=(by[-1], 2)).astype(float)
        cost = rng.uniform(0.0, 3.0, size=(bx[-1], by[-1]))
        values, plans = _solve_level(mu, nu, bx, by, cost, vx, vy)
        for a in range(len(kx)):
            for b in range(len(ky)):
                rx, ry = slice(bx[a], bx[a + 1]), slice(by[b], by[b + 1])
                value, plan = value_ordered_solve(mu[rx], nu[ry], cost[rx, ry], vx[rx], vy[ry])
                assert values[a, b] == value
                assert plans[rx, ry].tobytes() == plan.tobytes()
                tree_value, _ = solve_transport(mu[rx], nu[ry], cost[rx, ry])
                assert value == pytest.approx(tree_value, rel=1e-12, abs=0.0)


def quantile_cost(atoms_x, atoms_y, p):
    """Cost of the monotone coupling of two laws on the line, from the sorted
    atoms: the two quantile functions integrated over their common steps."""
    xs, ys = sorted(atoms_x), sorted(atoms_y)
    i = j = 0
    left_x, left_y = xs[0][1], ys[0][1]
    total = 0.0
    while True:
        step = min(left_x, left_y)
        total += step * abs(xs[i][0] - ys[j][0]) ** p
        left_x, left_y = left_x - step, left_y - step
        if left_x <= left_y:
            i += 1
            if i == len(xs):
                return total
            left_x = xs[i][1]
        else:
            j += 1
            if j == len(ys):
                return total
            left_y = ys[j][1]


def test_depth_one_value_is_the_quantile_coupling_cost(rng):
    # on the line with a convex cost the monotone coupling is optimal, which
    # is why the north-west corner of value-sorted children is a good start
    for n in range(1, 8):
        for m in range(1, 8):
            x, y = (random_process(rng, 1, (1,), k) for k in (n, m))
            value, plan = aw_distance(x, y, 2.0)
            atoms = [[(proc.node(c).value[0], proc.node(c).prob) for c in proc.leaves]
                     for proc in (x, y)]
            assert value ** 2 == pytest.approx(quantile_cost(*atoms, 2.0), rel=1e-12, abs=1e-15)
            assert check_bicausal(plan)


def reversed_children(proc):
    """The same process with every node's children listed in reverse order."""
    return type(proc)(depth=proc.depth, value_dims=proc.value_dims, nodes=proc.nodes[::-1])


def test_reversed_child_order_gives_the_same_value(rng):
    for _ in range(20):
        x, y = random_pair(rng, depth=3, max_branch=4)
        rx, ry = reversed_children(x), reversed_children(y)
        assert rx.children(rx.root_id) == x.children(x.root_id)[::-1]
        value, _ = aw_distance(x, y, 2.0)
        reversed_value, plan = aw_distance(rx, ry, 2.0)
        assert reversed_value == pytest.approx(value, rel=1e-12, abs=0.0)
        assert check_bicausal(plan)


def test_lazy_kernels_equal_the_eager_top_down_pass(rng):
    # the plans of a geodesic and of a represented curve: kernels key for key
    # and bit for bit, in the same order, and the same pair masses
    x, y = random_pair(rng, depth=3, max_branch=4)
    grid = dyadic_grid(2)
    curve = GridCurve(grid=(0.0, 0.5, 1.0),
                      processes=tuple(random_process(rng, 2, (1, 2), 3) for _ in range(3)), p=1.5)
    plans = [geodesic(x, y, 2.0, grid).coupling.plans[0]]
    plans += represent_curve(curve).coupling.plans
    assert len(plans) == 3
    for plan in plans:
        _, reference, _ = nodewise_reference(plan.x, plan.y, plan.p)
        kernels, masses = eager_top_down(plan.x, plan.y, reference)
        assert list(plan.kernels) == list(kernels)
        for key, (cx, cy, mat) in kernels.items():
            lazy = plan.kernels[key]
            assert lazy[:2] == (cx, cy)
            assert lazy[2].tobytes() == mat.tobytes() and lazy[2].shape == mat.shape
        assert list(plan.pair_masses.items()) == list(masses.items())
        assert len(plan.kernels) == len(kernels)


def lp_rows_by_loops(x, y):
    """The path-pair LP rows as the former per-leaf loops over ``ancestor_at`` built them."""
    lx, ly = x.leaves, y.leaves
    nx, ny = len(lx), len(ly)
    xi = {k: i for i, k in enumerate(lx)}
    yi = {l: j for j, l in enumerate(ly)}
    mu, nu = x.reach_prob, y.reach_prob
    under_x = {v: [k for k in lx if ancestor_at(x, k, t) == v]
               for t in range(1, x.depth) for v in x.level(t)}
    under_y = {w: [l for l in ly if ancestor_at(y, l, t) == w]
               for t in range(1, y.depth) for w in y.level(t)}
    rows, rhs = [], []
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
    for t in range(1, x.depth):
        for v in x.level(t):
            kx = under_x[v]
            for w in y.level(t)[:-1]:
                cols_w = [yi[l] for l in under_y[w]]
                for k in kx[:-1]:
                    row = np.zeros(nx * ny)
                    for j in cols_w:
                        row[xi[k] * ny + j] += mu[v]
                    for k2 in kx:
                        for j in cols_w:
                            row[xi[k2] * ny + j] -= mu[k]
                    rows.append(row)
                    rhs.append(0.0)
        for w in y.level(t):
            ky = under_y[w]
            for v in x.level(t)[:-1]:
                rows_v = [xi[k] for k in under_x[v]]
                for l in ky[:-1]:
                    row = np.zeros(nx * ny)
                    for i in rows_v:
                        row[i * ny + yi[l]] += nu[w]
                    for l2 in ky:
                        for i in rows_v:
                            row[i * ny + yi[l2]] -= nu[l]
                    rows.append(row)
                    rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def kernels_by_parent_walks(plan):
    """A plan's kernels from cylinder masses as the former per-mass parent walks built them."""
    x, y = plan.x, plan.y
    cyl = {}
    for (k, l), m in plan.pair_masses.items():
        vk, vl = k, l
        for t in range(x.depth, -1, -1):
            cyl[(vk, vl)] = cyl.get((vk, vl), 0.0) + m
            if t:
                vk, vl = x.node(vk).parent, y.node(vl).parent
    kernels = {}
    for t in range(x.depth):
        for vx in x.level(t):
            for vy in y.level(t):
                q = cyl.get((vx, vy), 0.0)
                if q > 0.0:
                    cx, cy = x.children(vx), y.children(vy)
                    mat = np.array([[cyl.get((a, b), 0.0) / q for b in cy] for a in cx])
                    kernels[(vx, vy)] = (cx, cy, mat)
    return kernels


def multicausal_by_loops(coupling, tol):
    """check_multicausal as the former nested loops over ``ancestor_at`` computed it."""
    procs = coupling.processes
    items = list(coupling.masses.items())
    for i, proc in enumerate(procs):
        marg = {}
        for tup, m in items:
            marg[tup[i]] = marg.get(tup[i], 0.0) + m
        if any(abs(marg.get(leaf, 0.0) - proc.reach_prob[leaf]) > MARGINAL_TOL for leaf in proc.leaves):
            return False
    for i, proc in enumerate(procs):
        for t in range(1, proc.depth):
            full, cyl = {}, {}
            for tup, m in items:
                others = tuple(ancestor_at(procs[j], tup[j], t) for j in range(len(procs)) if j != i)
                full[(tup[i],) + others] = full.get((tup[i],) + others, 0.0) + m
                key = (ancestor_at(proc, tup[i], t),) + others
                cyl[key] = cyl.get(key, 0.0) + m
            for (v, *others), g_cyl in cyl.items():
                for leaf in proc.leaves:
                    if ancestor_at(proc, leaf, t) == v:
                        g_full = full.get((leaf, *others), 0.0)
                        if abs(g_full * proc.reach_prob[v] - g_cyl * proc.reach_prob[leaf]) > tol:
                            return False
    return True


def swapped(coupling, eps_share):
    """The two-process coupling with mass moved around a 2x2 rectangle of leaf
    pairs: both factor marginals stay, the causality identities generally break."""
    items = list(coupling.masses.items())
    (a1, b1), m1 = items[0]
    (a2, b2), m2 = next(((k, m) for k, m in items if k[0] != a1 and k[1] != b1), items[-1])
    eps = eps_share * min(m1, m2)
    masses = dict(coupling.masses)
    for key, sign in (((a1, b1), -1), ((a2, b2), -1), ((a1, b2), 1), ((a2, b1), 1)):
        masses[key] = masses.get(key, 0.0) + sign * eps
    return with_masses(coupling, masses)


def with_masses(coupling, masses):
    """The coupling with its masses replaced."""
    return type(coupling)(processes=coupling.processes, masses=masses, plans=coupling.plans,
                          product=coupling.product, node_tuple=coupling.node_tuple)


def test_layout_consumers_match_the_former_node_walks(rng):
    # the LP rows, kernels recovered from masses and multicausality verdicts
    # that read the tree layout equal the former per-node loops bit for bit
    for _ in range(12):
        x, y = random_pair(rng, depth=3, max_branch=3)
        z = random_process(rng, 3, x.value_dims, 3)
        a, b = bicausal._lp_rows(x, y)
        ra, rb = lp_rows_by_loops(x, y)
        assert a.shape == ra.shape and a.tobytes() == ra.tobytes() and b.tobytes() == rb.tobytes()
        plan = aw_distance(x, y, 2.0)[1]
        raw = BicausalPlan.from_pair_masses(x, y, 2.0, plan.pair_masses)
        kernels, reference = raw.effective_kernels(), kernels_by_parent_walks(raw)
        assert list(kernels) == list(reference)
        for key, (cx, cy, mat) in reference.items():
            assert kernels[key][:2] == (cx, cy) and kernels[key][2].tobytes() == mat.tobytes()
        chain = glue([plan, aw_distance(y, z, 1.5)[1]])
        pair = glue([raw])
        for coupling in (chain, pair, swapped(pair, 0.5), swapped(pair, 1e-12)):
            for tol in (1e-9, 1e-15):
                assert check_multicausal(coupling, tol) == multicausal_by_loops(coupling, tol)
        assert check_multicausal(chain) and check_multicausal(pair)


def test_aw_deterministic_pair(dirac_pair):
    x, y = dirac_pair
    value, plan = aw_distance(x, y, 2.0)
    assert value == pytest.approx(math.sqrt(13))
    assert list(plan.pair_masses.values()) == [1.0]


def test_aw_epsilon_example_p1():
    # hand backward induction: eps at time 1, then mass 1/2 moves across 2
    value, plan = aw_distance(epsilon_x(), epsilon_y(0.1), 1.0)
    assert value == pytest.approx(1.1, abs=1e-12)
    assert check_bicausal(plan)


def test_aw_epsilon_example_p2():
    value, _ = aw_distance(epsilon_x(), epsilon_y(0.1), 2.0)
    assert value**2 == pytest.approx(2.01, abs=1e-12)


def test_aw_epsilon_gap_to_classical():
    assert w_of_path_laws(epsilon_x(), epsilon_y(0.1), 1.0) == pytest.approx(0.1)


def test_aw_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        aw_distance(chain_process([1.0]), chain_process([1.0, 2.0]), 2.0)


def test_aw_value_is_cost_of_pair_masses():
    rng = np.random.default_rng(83)
    for _ in range(20):
        x, y = random_pair(rng)
        p = float(rng.choice([1.0, 2.0]))
        value, plan = aw_distance(x, y, p)
        rebuilt = BicausalPlan.from_pair_masses(x, y, p, plan.pair_masses)
        assert rebuilt.value == pytest.approx(value, abs=1e-10)


def test_aw_pseudo_metric_axioms_fuzzed():
    rng = np.random.default_rng(89)
    for _ in range(25):
        depth = int(rng.integers(1, 3))
        dims = tuple(int(rng.integers(1, 3)) for _ in range(depth))
        procs = [random_process(rng, depth, dims, 2) for _ in range(3)]
        p = float(rng.choice([1.0, 2.0]))
        d01, _ = aw_distance(procs[0], procs[1], p)
        d10, _ = aw_distance(procs[1], procs[0], p)
        assert abs(d01 - d10) <= 1e-9
        assert aw_distance(procs[0], procs[0], p)[0] <= 1e-9
        d02, _ = aw_distance(procs[0], procs[2], p)
        d12, _ = aw_distance(procs[1], procs[2], p)
        assert d01 <= d02 + d12 + 1e-7


def test_aw_dominates_classical_and_matches_at_depth_one():
    rng = np.random.default_rng(97)
    for _ in range(25):
        depth = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 3)) for _ in range(depth))
        x, y = (random_process(rng, depth, dims, 2) for _ in range(2))
        p = float(rng.choice([1.0, 2.0]))
        aw, _ = aw_distance(x, y, p)
        w = w_of_path_laws(x, y, p)
        assert aw >= w - 1e-9
        if depth == 1:
            assert aw == pytest.approx(w, abs=1e-9)


# -- aw_distance_lp -----------------------------------------------------------

def test_lp_oracle_deterministic_pair(dirac_pair):
    x, y = dirac_pair
    value, _ = aw_distance_lp(x, y, 2.0)
    assert value == pytest.approx(math.sqrt(13))


def test_lp_oracle_epsilon_example():
    value, plan = aw_distance_lp(epsilon_x(), epsilon_y(0.1), 1.0)
    assert value == pytest.approx(1.1, abs=1e-9)
    assert check_bicausal(plan)


def test_lp_oracle_depth_one_equals_classical():
    rng = np.random.default_rng(101)
    for _ in range(10):
        x, y = (random_process(rng, 1, (2,), 3) for _ in range(2))
        p = float(rng.choice([1.0, 2.0]))
        value, _ = aw_distance_lp(x, y, p)
        assert value == pytest.approx(w_of_path_laws(x, y, p), abs=1e-9)


def test_dp_matches_lp_oracle_fuzzed():
    rng = np.random.default_rng(103)
    for _ in range(40):
        x, y = random_pair(rng)
        p = float(rng.choice([1.0, 2.0]))
        v_dp, _ = aw_distance(x, y, p)
        v_lp, _ = aw_distance_lp(x, y, p)
        assert abs(v_dp - v_lp) <= 1e-7 * (1.0 + v_dp)


# -- check_bicausal -----------------------------------------------------------

def test_product_coupling_is_bicausal():
    rng = np.random.default_rng(107)
    for _ in range(10):
        x, y = random_pair(rng, depth=2)
        assert check_bicausal(BicausalPlan.product(x, y, 2.0))


def test_solver_plans_are_bicausal():
    rng = np.random.default_rng(109)
    for _ in range(15):
        x, y = random_pair(rng)
        _, plan = aw_distance(x, y, 2.0)
        assert check_bicausal(plan)


def fair_coin_square():
    step = [(0.5, 0.0, []), (0.5, 1.0, [])]
    return build_process([1, 1], [(0.5, 0.0, step), (0.5, 1.0, step)])


def test_time_swapped_coupling_violates_causality():
    # route time-1 mass by the partner's time-2 value: y-path = reversed x-path
    proc = fair_coin_square()
    mirror = fair_coin_square()
    leaf_by_path = {}
    for leaf in mirror.leaves:
        vals = tuple(v[0] for v in leaf_paths(mirror)[leaf])
        leaf_by_path[vals] = leaf
    masses = {}
    for leaf in proc.leaves:
        a, b = (v[0] for v in leaf_paths(proc)[leaf])
        masses[(leaf, leaf_by_path[(b, a)])] = 0.25
    plan = BicausalPlan.from_pair_masses(proc, mirror, 2.0, masses)
    # marginals are perfect, causality is not
    mat = plan.matrix()
    assert np.abs(mat.sum(axis=1) - 0.25).max() <= 1e-12
    assert np.abs(mat.sum(axis=0) - 0.25).max() <= 1e-12
    assert not check_bicausal(plan)
    # oracle: evaluate one violated identity directly
    x1 = proc.level(1)[0]
    mu = proc.reach_prob
    k = proc.children(x1)[0]          # x-path (0, 0)
    w = mirror.level(1)[0]            # cylinder y1 = 0
    pi_kw = sum(m for (kk, ll), m in masses.items()
                if kk == k and ancestor_at(mirror, ll, 1) == w)
    pi_vw = sum(m for (kk, ll), m in masses.items()
                if ancestor_at(proc, kk, 1) == x1 and ancestor_at(mirror, ll, 1) == w)
    assert abs(mu[x1] * pi_kw - mu[k] * pi_vw) > 0.05


def test_check_bicausal_catches_marginal_violation():
    x, y = chain_process([0.0, 0.0]), chain_process([1.0, 1.0])
    plan = BicausalPlan.from_pair_masses(x, y, 2.0, {(x.leaves[0], y.leaves[0]): 0.5})
    assert not check_bicausal(plan)


def test_a_plan_of_negative_cost_has_a_float_value():
    # a negative weighted cost gave the complex value 4.3e-17+0.707j
    x = build_process([1], [(0.5, 0.0, []), (0.5, 1.0, [])])
    plan = BicausalPlan.from_pair_masses(x, x, 2.0, {(1, 2): -0.5, (2, 1): 0.0})
    assert type(plan.value) is float and plan.value == 0.0
    assert not check_bicausal(plan)


def bicausal_by_matrices(plan, tol):
    """check_bicausal as the former dense 0/1 cylinder matrices and matrix
    products over ``plan.matrix()`` computed it."""
    x, y = plan.x, plan.y
    pi = plan.matrix()
    if not np.isfinite(pi).all():
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


def test_check_bicausal_matches_the_dense_check(rng):
    # solver plans, the same with every mass perturbed, and product plans,
    # at tolerances from rounding level up; both verdicts must occur
    verdicts = []
    for case in range(12):
        x, y = random_pair(rng, depth=2 + case % 2)
        solver = aw_distance(x, y, 2.0)[1]
        plans = [solver, BicausalPlan.product(x, y, 2.0)]
        masses = np.fromiter(solver.pair_masses.values(), float)
        for noise in (1e-12, 1e-9, 1e-6, 0.05):
            noisy = masses * (1.0 + noise * rng.uniform(-1.0, 1.0, masses.size))
            noisy_masses = dict(zip(solver.pair_masses, noisy.tolist()))
            plans.append(BicausalPlan(x=x, y=y, p=2.0, pair_masses=noisy_masses, value=0.0))
        for plan in plans:
            for tol in (1e-15, 1e-12, 1e-9, 1e-6):
                verdicts.append(check_bicausal(plan, tol))
                assert verdicts[-1] == bicausal_by_matrices(plan, tol), (case, tol)
    assert set(verdicts) == {True, False}


def test_check_bicausal_rejects_non_finite_masses(rng):
    x, y = random_pair(rng, depth=2)
    _, plan = aw_distance(x, y, 2.0)
    first = next(iter(plan.pair_masses))
    for bad in (math.nan, math.inf):
        for keys in ([first], list(plan.pair_masses)):
            masses = dict(plan.pair_masses) | {k: bad for k in keys}
            assert not check_bicausal(BicausalPlan(x=x, y=y, p=2.0, pair_masses=masses, value=0.0))


# -- glue and multicausal -----------------------------------------------------

def test_glue_identity_chain_is_diagonal():
    procs = [chain_process([1.0, 2.0]) for _ in range(3)]
    plans = [aw_distance(procs[i], procs[i + 1], 2.0)[1] for i in range(2)]
    coup = glue(plans)
    assert len(coup.masses) == 1
    (tup, mass), = coup.masses.items()
    assert mass == pytest.approx(1.0)
    assert len(set(len(p.leaves) for p in coup.processes)) == 1


def test_glue_marginalization_recovers_inputs():
    rng = np.random.default_rng(113)
    procs = [random_process(rng, 2, (1, 1), 2) for _ in range(3)]
    plans = [aw_distance(procs[i], procs[i + 1], 2.0)[1] for i in range(2)]
    coup = glue(plans)
    assert validate(coup.product) == []
    for i, plan in enumerate(plans):
        marg = pair_marginal(coup, i)
        keys = set(marg) | set(plan.pair_masses)
        for key in keys:
            assert marg.get(key, 0.0) == pytest.approx(
                plan.pair_masses.get(key, 0.0), abs=1e-10
            )


def test_glue_three_random_processes_multicausal_and_lift_bicausal():
    rng = np.random.default_rng(127)
    for _ in range(5):
        procs = [random_process(rng, 2, (1, 1), 2) for _ in range(3)]
        plans = [aw_distance(procs[i], procs[i + 1], 2.0)[1] for i in range(2)]
        coup = glue(plans)
        assert check_multicausal(coup)
        for i in range(3):
            lifted = factor_plan(coup, i, 2.0)
            assert lifted.value <= 1e-9
            assert check_bicausal(lifted)


def test_glue_rejects_inconsistent_chain():
    rng = np.random.default_rng(131)
    a, b = random_pair(rng, depth=2)
    c, d = random_pair(rng, depth=2)
    p1 = aw_distance(a, b, 2.0)[1]
    p2 = aw_distance(c, d, 2.0)[1]
    if b != c:
        with pytest.raises(ValueError):
            glue([p1, p2])


def test_glue_size_guard():
    rng = np.random.default_rng(137)
    procs = [random_process(rng, 2, (1, 1), 3, min_prob=0.3) for _ in range(3)]
    plans = [aw_distance(procs[i], procs[i + 1], 2.0)[1] for i in range(2)]
    with pytest.raises(SizeGuardError):
        glue(plans, max_leaves=1)
    # the leaf level is the largest; a limit of exactly its size passes
    product = glue(plans).product
    size = len(product.leaves)
    assert size > len(product.level(1)) and size > 1
    assert len(glue(plans, max_leaves=size).product.leaves) == size
    with pytest.raises(SizeGuardError, match=f"exceeds {size - 1} leaves: level 2 has {size} nodes"):
        glue(plans, max_leaves=size - 1)


def glue_by_nodes(plans):
    """The product tree, node tuples and masses as the former per-node glue
    built them: kernel dicts walked per product node, children appended one
    at a time."""
    chain = [plans[0].x] + [pl.y for pl in plans]
    kernels = [pl.effective_kernels() for pl in plans]
    n = len(chain)
    nodes = [TreeNode(id=0, parent=None, time=0, value=None, prob=1.0)]
    node_tuple = {0: tuple(pr.root_id for pr in chain)}
    frontier = [0]
    for t in range(1, chain[0].depth + 1):
        new_frontier = []
        for pid in frontier:
            tup = node_tuple[pid]
            cx0, cy0, mat0 = kernels[0][(tup[0], tup[1])]
            partial = [([a, b], float(mat0[i, j])) for i, a in enumerate(cx0)
                       for j, b in enumerate(cy0) if mat0[i, j] > 0.0]
            for k in range(1, n - 1):
                cxk, cyk, matk = kernels[k][(tup[k], tup[k + 1])]
                rowsums = matk.sum(axis=1)
                extended = []
                for prefix, wgt in partial:
                    r = cxk.index(prefix[-1])
                    if rowsums[r] <= 0.0:
                        continue
                    for j, b in enumerate(cyk):
                        q = matk[r, j]
                        if q > 0.0:
                            extended.append((prefix + [b], wgt * (q / rowsums[r])))
                partial = extended
            total = math.fsum(w for _, w in partial) if n > 2 else 1.0
            for child_tup, wgt in partial:
                nid = len(nodes)
                value = tuple(v for proc, cid in zip(chain, child_tup) for v in proc.node(cid).value)
                nodes.append(TreeNode(id=nid, parent=pid, time=t, value=value, prob=wgt / total))
                node_tuple[nid] = tuple(child_tup)
                new_frontier.append(nid)
        frontier = new_frontier
    product = TreeProcess(depth=chain[0].depth, value_dims=tuple(map(sum, zip(*(pr.value_dims for pr in chain)))),
                          nodes=tuple(nodes))
    reach = product.reach_prob
    return nodes, node_tuple, {node_tuple[leaf]: reach[leaf] for leaf in product.leaves}


def node_bits(node):
    """A product node with its floats as hex strings, so == compares bits."""
    value = None if node.value is None else tuple(float(v).hex() for v in node.value)
    return node.id, node.parent, node.time, value, float(node.prob).hex()


def wide_process(rng, dims, width):
    """Depth-2 process whose root has ``width`` children, each with 1..3 children."""
    def branch(k, dim, kids):
        probs = rng.uniform(0.1, 1.0, size=k)
        return [(float(q), tuple(rng.normal(size=dim).tolist()), kids()) for q in probs / probs.sum()]
    return build_process(list(dims), branch(width, dims[0], lambda: branch(int(rng.integers(1, 4)), dims[1], list)))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_glue_matches_the_per_node_glue(rng, p):
    # chains of 2..4 processes with multi-dimensional values, each plan a
    # solver plan, a plan rebuilt from its masses or the product plan; in
    # the wide chains a root has 9..12 children, so the ratio extension sums
    # kernel rows of 9 or more entries, where numpy sums pairwise
    kinds = ("solver", "masses", "product")
    for case in range(12):
        n = 2 + case % 3
        dims = (1, 2) if case % 2 else (2, 3)
        if case >= 9:
            procs = [wide_process(rng, dims, int(rng.integers(9, 13))) for _ in range(n)]
        else:
            procs = [random_process(rng, 2 + case % 2, dims + (1,) * (case % 2), 3) for _ in range(n)]
        plans = []
        for i in range(n - 1):
            kind = kinds[(case + i) % 3]
            x, y = procs[i], procs[i + 1]
            if kind == "product":
                plans.append(BicausalPlan.product(x, y, p))
            else:
                plan = aw_distance(x, y, p)[1]
                plans.append(plan if kind == "solver" else BicausalPlan.from_pair_masses(x, y, p, plan.pair_masses))
        coupling = glue(plans)
        nodes, node_tuple, masses = glue_by_nodes(plans)
        product = coupling.product
        # the layout glue hands over is the one the former builder makes from the nodes
        assert "layout" in vars(product)
        assert_same_layout(product.layout, layout_by_nodes(
            TreeProcess(depth=product.depth, value_dims=product.value_dims, nodes=tuple(nodes))))
        assert list(map(node_bits, coupling.product.nodes)) == list(map(node_bits, nodes))
        assert list(coupling.node_tuple.items()) == list(node_tuple.items())
        assert list(coupling.masses) == list(masses)
        assert [m.hex() for m in coupling.masses.values()] == [m.hex() for m in masses.values()]


def test_cli_runs_build_no_tuple_keyed_mappings(tmp_path, monkeypatch):
    # dist --plan, check-plan and represent keep plans and glued couplings
    # as leaf-position arrays: their tuple-keyed mappings are never built,
    # and once read they hold the items of the former per-node glue
    made = []

    def record(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((cli, "aw_distance"), (cli, "_plan_from_dict"), (curves, "aw_distance"),
                         (curves, "glue")):
        record(module, name)
    rng = np.random.default_rng(41)
    procs = [random_process(rng, 2, (1, 1), 3) for _ in range(3)]
    x, y, curve = tmp_path / "x.json", tmp_path / "y.json", tmp_path / "curve.json"
    x.write_text(json.dumps(tree_to_dict(procs[0])))
    y.write_text(json.dumps(tree_to_dict(procs[1])))
    curve.write_text(json.dumps({"grid": [0.0, 0.5, 1.0], "p": 2.0, "processes": list(map(tree_to_dict, procs))}))
    plan = tmp_path / "plan.json"
    for argv in (["dist", str(x), str(y), "--plan", str(plan)], ["check-plan", str(plan), str(x), str(y)],
                 ["represent", str(curve), "--out", str(tmp_path / "flow.json")]):
        assert cli.main(argv) == 0
    plans = [m[1] if isinstance(m, tuple) else m for m in made if not isinstance(m, MulticausalCoupling)]
    (coupling,) = [m for m in made if isinstance(m, MulticausalCoupling)]
    assert len(plans) == 4
    views = [pl.pair_masses for pl in plans] + [coupling.masses, coupling.node_tuple]
    assert not any("_dict" in vars(view) for view in views)
    # the plan read back lists the written plan's pairs, sorted by leaf ids
    written, read = plans[:2]
    assert list(read.pair_masses.items()) == sorted(written.pair_masses.items())
    _, node_tuple, masses = glue_by_nodes(coupling.plans)
    assert list(coupling.node_tuple.items()) == list(node_tuple.items())
    assert [(k, m.hex()) for k, m in coupling.masses.items()] == [(k, m.hex()) for k, m in masses.items()]


def test_couplings_built_from_mappings_are_converted_once(rng):
    # a caller's dicts become the arrays that glue builds: masses by leaf
    # position, node tuples by factor position per level
    procs = [random_process(rng, 2, (1, 2), 3) for _ in range(3)]
    coupling = glue([aw_distance(a, b, 2.0)[1] for a, b in zip(procs, procs[1:])])
    rebuilt = MulticausalCoupling(processes=coupling.processes, masses=dict(coupling.masses),
                                  plans=coupling.plans, product=coupling.product,
                                  node_tuple=dict(coupling.node_tuple))
    for got, want in zip(rebuilt.positions, coupling.positions):
        assert np.array_equal(got, want) and not got.flags.writeable
    for got, want in zip(rebuilt.masses.leaf, coupling.masses.leaf):
        assert np.array_equal(got, want)
    assert rebuilt.masses.mass.tolist() == coupling.masses.mass.tolist()
    assert check_multicausal(rebuilt)
    # a plan's dict is converted when the plan is built, and a key that is
    # no leaf id, an int or not, fails there
    plan = coupling.plans[0]
    copy = BicausalPlan(x=plan.x, y=plan.y, p=2.0, pair_masses=dict(plan.pair_masses), value=plan.value)
    assert [a.tolist() for a in copy.pair_masses.leaf] == [a.tolist() for a in plan.pair_masses.leaf]
    for bad in (plan.x.root_id, "a", None):
        with pytest.raises(ValueError, match=f"^plan lists a pair with a non-leaf node {bad!r}$"):
            BicausalPlan.from_pair_masses(plan.x, plan.y, 2.0, {(bad, plan.y.leaves[0]): 1.0})


def test_multicausal_check_rejects_non_finite_and_negative_masses(rng):
    x, y = random_pair(rng, depth=2)
    pair = glue([aw_distance(x, y, 2.0)[1]])
    first = next(iter(pair.masses))
    for bad in (math.nan, math.inf):
        for keys in ([first], list(pair.masses)):
            assert not check_multicausal(with_masses(pair, dict(pair.masses) | {k: bad for k in keys}))
    # a rectangle with negative corners on two fair coins: both marginals
    # hold and depth 1 has no causality identity, only the signs are wrong
    coin = build_process([1], [(0.5, 0.0, []), (0.5, 1.0, [])])
    square = glue([BicausalPlan.product(coin, coin, 2.0)])
    (a, b), (c, d) = coin.leaves, coin.leaves
    assert check_multicausal(square)
    rectangle = {(a, c): 0.6, (a, d): -0.1, (b, c): -0.1, (b, d): 0.6}
    assert not check_multicausal(with_masses(square, rectangle))
    assert not check_bicausal(BicausalPlan.from_pair_masses(coin, coin, 2.0, rectangle))


def test_multicausal_check_conditions_on_all_other_processes():
    # three fair-coin squares; the first process's second coin is the XOR of
    # the others' first coins, independent of each of them but not of both:
    # every pair marginal is bicausal, the coupling is not multicausal
    coins = [fair_coin_square() for _ in range(3)]
    leaf = [{tuple(v[0] for v in leaf_paths(c)[k]): k for k in c.leaves} for c in coins]
    masses = {(leaf[0][(a1, float(b1 != c1))], leaf[1][(b1, b2)], leaf[2][(c1, c2)]): 1 / 32
              for a1, b1, c1, b2, c2 in itertools.product((0.0, 1.0), repeat=5)}
    xor = with_masses(glue([BicausalPlan.product(a, b, 2.0) for a, b in zip(coins, coins[1:])]), masses)
    for i in range(2):
        pair = BicausalPlan.from_pair_masses(coins[i], coins[i + 1], 2.0, pair_marginal(xor, i))
        assert check_bicausal(pair)
    assert not multicausal_by_loops(xor, 1e-9)
    assert not check_multicausal(xor)


def test_multicausal_check_rejects_shuffled_masses():
    rng = np.random.default_rng(139)
    procs = [random_process(rng, 2, (1,) * 2, 2, min_prob=0.3) for _ in range(3)]
    plans = [aw_distance(procs[i], procs[i + 1], 2.0)[1] for i in range(2)]
    coup = glue(plans)
    if len(coup.masses) < 3:
        pytest.skip("degenerate draw")
    # independent product of the three path laws, which is multicausal, vs a
    # mass swap concentrated on mismatched tuples, which is generally not
    items = sorted(coup.masses.items())
    broken = dict(items)
    (k1, m1), (k2, _) = items[0], items[1]
    # move half of one tuple's mass onto a mismatched tuple; factor marginals
    # break, so the coupling is no longer multicausal
    target = (k1[0], k2[1]) + tuple(k1[2:])
    broken[k1] = m1 / 2
    broken[target] = broken.get(target, 0.0) + m1 / 2
    fake = type(coup)(
        processes=coup.processes,
        masses=broken,
        plans=coup.plans,
        product=coup.product,
        node_tuple=coup.node_tuple,
    )
    assert not check_multicausal(fake)


def test_aw_distance_rejects_a_nan_edge_probability():
    # the nodewise balance check compared with ">", so a NaN mass passed and
    # aw_distance returned nan
    x = build_process([1], [(math.nan, 0.0, []), (0.5, 1.0, [])])
    coin = build_process([1], [(0.5, 0.0, []), (0.5, 1.0, [])])
    with pytest.raises(InfeasibleError, match=r"^marginal masses nan and 1.0 do not balance$"):
        aw_distance(x, coin, 2.0)


def test_aw_distance_rejects_a_negative_edge_probability():
    # the probabilities balance, and aw_distance returned 1.0
    x = build_process([1], [(1.5, 0.0, []), (-0.5, 1.0, [])])
    coin = build_process([1], [(0.5, 0.0, []), (0.5, 1.0, [])])
    with pytest.raises(ValueError, match=r"^mass -0.5 is not >= 0$"):
        aw_distance(x, coin, 1.0)
    with pytest.raises(ValueError, match=r"^mass -0.5 is not >= 0$"):
        aw_distance(coin, x, 2.0)


def test_step_costs_of_tiny_and_huge_differences_are_their_norms():
    # the squares of the differences underflowed to 0 or overflowed to inf,
    # so these distances of order one read 0 or raised OverflowError
    assert aw_distance(chain_process([0.0]), chain_process([6e-280]), 1.0)[0] == 6e-280
    assert aw_distance(chain_process([(0.0, 0.0)]), chain_process([(3e-200, 4e-200)]), 1.0)[0] == 5e-200
    far = aw_distance(chain_process([(0.0, 0.0)]), chain_process([(3e200, 4e200)]), 1.0)[0]
    assert far == pytest.approx(5e200, rel=1e-15)
    with pytest.raises(OverflowError, match="^nodewise costs overflow"):
        aw_distance(chain_process([(0.0, 0.0)]), chain_process([(3e200, 4e200)]), 2.0)
