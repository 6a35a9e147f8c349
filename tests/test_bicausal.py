import math

import numpy as np
import pytest

from adawass import (
    BicausalPlan,
    DiscreteLaw,
    ShapeMismatchError,
    SizeGuardError,
    aw_distance,
    aw_distance_lp,
    build_process,
    chain_process,
    check_bicausal,
    check_multicausal,
    factor_plan,
    glue,
    path_distance,
    path_law,
    validate,
    w_distance,
)
from adawass import bicausal
from adawass.bicausal import _solve_level
from adawass.discrete_ot import solve_transport
from adawass.trees import step_cost

from conftest import epsilon_x, epsilon_y, random_pair, random_process


def w_of_path_laws(x, y, p):
    """Classical distance between the path laws, forgetting filtrations."""
    lx, ly = path_law(x), path_law(y)
    mu = DiscreteLaw.from_arrays(
        [np.concatenate(atom) for atom, _ in lx.atoms], [m for _, m in lx.atoms]
    )
    nu = DiscreteLaw.from_arrays(
        [np.concatenate(atom) for atom, _ in ly.atoms], [m for _, m in ly.atoms]
    )
    cost = [
        [path_distance(a, b, p) ** p for b, _ in ly.atoms] for a, _ in lx.atoms
    ]
    value, _ = w_distance(mu, nu, cost)
    return value ** (1.0 / p)


# -- aw_distance --------------------------------------------------------------

def nodewise_reference(x, y, p):
    """The backward induction one node pair at a time; root value and per-pair plans."""
    values, plans = {}, {}
    for t in range(x.depth - 1, -1, -1):
        for vx in x.level(t):
            cx = x.children(vx)
            for vy in y.level(t):
                cy = y.children(vy)
                cost = np.empty((len(cx), len(cy)))
                for i, a in enumerate(cx):
                    for j, b in enumerate(cy):
                        cost[i, j] = step_cost(x.node(a).value, y.node(b).value, p)
                        if t + 1 < x.depth:
                            cost[i, j] += values[(a, b)]
                values[(vx, vy)], plans[(vx, vy)] = solve_transport(
                    [x.node(c).prob for c in cx], [y.node(c).prob for c in cy], cost)
    return values[(x.root_id, y.root_id)], plans


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_level_wise_induction_matches_nodewise_reference(rng, p):
    # the level path batches every 2x2 pair; its values and kernels must equal
    # the per-pair solves bit for bit, on trees of mixed branching
    for _ in range(15):
        x, y = random_pair(rng, depth=3, max_branch=3)
        total, plans = nodewise_reference(x, y, p)
        value, plan = aw_distance(x, y, p)
        assert value == total ** (1.0 / p)
        for pair, (cx, cy, mat) in plan.kernels.items():
            assert (cx, cy) == (x.children(pair[0]), y.children(pair[1]))
            assert mat.tobytes() == plans[pair].tobytes()


def test_level_solve_matches_per_pair_solve_transport(rng, monkeypatch):
    # one level of 12 x 10 parents: with 1..3 children most pairs go through
    # the batched 2x2 closed form; with 1..5 several general shapes form,
    # n != m among them, and a batch size of 5 cuts every group into batches
    for choices, batch in (([1, 2, 2, 3], 1024), ([1, 2, 3, 4, 5], 1024), ([1, 2, 3, 4, 5], 5)):
        monkeypatch.setattr(bicausal, "_LEVEL_BATCH", batch)
        kx, ky = rng.choice(choices, size=12), rng.choice(choices, size=10)
        bx, by = np.concatenate([[0], np.cumsum(kx)]), np.concatenate([[0], np.cumsum(ky)])
        mu = np.concatenate([w / w.sum() for w in (rng.uniform(0.1, 1.0, k) for k in kx)])
        nu = np.concatenate([w / w.sum() for w in (rng.uniform(0.1, 1.0, k) for k in ky)])
        cost = rng.uniform(0.0, 3.0, size=(bx[-1], by[-1]))
        values, plans = _solve_level(mu, nu, bx, by, cost)
        for a in range(len(kx)):
            for b in range(len(ky)):
                rx, ry = slice(bx[a], bx[a + 1]), slice(by[b], by[b + 1])
                value, plan = solve_transport(mu[rx], nu[ry], cost[rx, ry])
                assert values[a, b] == value
                assert plans[rx, ry].tobytes() == plan.tobytes()


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
        vals = tuple(v[0] for v in mirror.leaf_paths[leaf])
        leaf_by_path[vals] = leaf
    masses = {}
    for leaf in proc.leaves:
        a, b = (v[0] for v in proc.leaf_paths[leaf])
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
                if kk == k and mirror.ancestor_at(ll, 1) == w)
    pi_vw = sum(m for (kk, ll), m in masses.items()
                if proc.ancestor_at(kk, 1) == x1 and mirror.ancestor_at(ll, 1) == w)
    assert abs(mu[x1] * pi_kw - mu[k] * pi_vw) > 0.05


def test_check_bicausal_catches_marginal_violation():
    x, y = chain_process([0.0, 0.0]), chain_process([1.0, 1.0])
    plan = BicausalPlan.from_pair_masses(x, y, 2.0, {(x.leaves[0], y.leaves[0]): 0.5})
    assert not check_bicausal(plan)


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
        marg = coup.pair_marginal(i)
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
