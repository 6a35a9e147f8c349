import math

import numpy as np
import pytest

from adawass import (
    GridCurve,
    ShapeMismatchError,
    aw_distance,
    chain_process,
    check_multicausal,
    dyadic_grid,
    flow_energy,
    geodesic,
    metric_derivative,
    p_energy,
    path_distance,
    represent_curve,
    skorokhod,
    validate,
    verify_flow_ac,
    weighted_p_variation,
)
from adawass.trees import step_cost

from conftest import epsilon_x, epsilon_y, random_pair, random_process

QUARTER_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def shuffle_level_labels(flow, grid_index, level, rng):
    """Permute the labels of one grid point within one tree level."""
    nodes = list(flow.base.level(level))
    perm = list(nodes)
    rng.shuffle(perm)
    labels = dict(flow.labels[grid_index])
    for a, b in zip(nodes, perm):
        labels[a] = flow.labels[grid_index][b]
    return flow.with_labels(grid_index, labels)


# -- geodesic -----------------------------------------------------------------

def test_geodesic_between_equal_endpoints_is_constant():
    x = epsilon_x()
    flow = geodesic(x, x, 2.0, QUARTER_GRID)
    for i in range(len(flow.grid)):
        for j in range(len(flow.grid)):
            d, _ = aw_distance(flow.process_at(i), flow.process_at(j), 2.0)
            assert d <= 1e-12


def test_geodesic_dirac_midpoint(dirac_pair):
    x, y = dirac_pair
    flow = geodesic(x, y, 2.0, (0.0, 0.5, 1.0))
    mid = flow.process_at(1)
    vals = [n.value for n in mid.nodes if n.value is not None]
    assert vals == [(2.0,), (3.5,)]
    for i, endpoint in ((0, x), (2, y)):
        d, _ = aw_distance(flow.process_at(i), endpoint, 2.0)
        assert d <= 1e-12
    d0, _ = aw_distance(flow.process_at(0), mid, 2.0)
    assert d0 == pytest.approx(math.sqrt(13) / 2)


def test_geodesic_epsilon_midpoint():
    flow = geodesic(epsilon_x(), epsilon_y(0.1), 2.0, (0.0, 0.5, 1.0))
    d, _ = aw_distance(flow.process_at(0), flow.process_at(1), 2.0)
    assert d == pytest.approx(0.5 * math.sqrt(2.01), abs=1e-9)


def test_geodesic_constant_speed_property():
    rng = np.random.default_rng(211)
    for _ in range(6):
        x, y = random_pair(rng, depth=2, max_branch=2)
        total, _ = aw_distance(x, y, 2.0)
        flow = geodesic(x, y, 2.0, QUARTER_GRID)
        for i, u in enumerate(flow.grid):
            for j, v in enumerate(flow.grid):
                d, _ = aw_distance(flow.process_at(i), flow.process_at(j), 2.0)
                assert abs(d - abs(u - v) * total) <= 1e-7 * (1.0 + total)


def test_geodesic_endpoints_match_inputs():
    rng = np.random.default_rng(223)
    x, y = random_pair(rng, depth=2, max_branch=2)
    flow = geodesic(x, y, 1.0, (0.0, 1.0))
    assert aw_distance(flow.process_at(0), x, 1.0)[0] <= 1e-9
    assert aw_distance(flow.process_at(1), y, 1.0)[0] <= 1e-9


def test_geodesic_triangle_chaining():
    rng = np.random.default_rng(227)
    x, y = random_pair(rng, depth=2, max_branch=2)
    total, _ = aw_distance(x, y, 2.0)
    flow = geodesic(x, y, 2.0, QUARTER_GRID)
    legs = sum(
        aw_distance(flow.process_at(i), flow.process_at(i + 1), 2.0)[0]
        for i in range(len(flow.grid) - 1)
    )
    assert abs(legs - total) <= 1e-7 * (1.0 + total)


# -- metric derivative and energies -------------------------------------------

def test_metric_derivative_constant_curve():
    x = epsilon_x()
    curve = GridCurve(grid=QUARTER_GRID, processes=(x,) * 5, p=2.0)
    assert all(q == 0.0 for _, q in metric_derivative(curve))
    assert p_energy(curve) == 0.0


def test_metric_derivative_dirac_geodesic_constant_speed(dirac_pair):
    x, y = dirac_pair
    flow = geodesic(x, y, 2.0, QUARTER_GRID)
    curve = GridCurve(grid=flow.grid,
                      processes=tuple(flow.process_at(i) for i in range(5)), p=2.0)
    for _, quot in metric_derivative(curve):
        assert quot == pytest.approx(math.sqrt(13), abs=1e-7)
    assert p_energy(curve) == pytest.approx(13.0, abs=1e-9)


def test_metric_derivative_two_plateaus():
    a, b, c = chain_process([0.0, 0.0]), chain_process([1.0, 1.0]), chain_process([3.0, 3.0])
    curve = GridCurve(grid=(0.0, 0.5, 1.0), processes=(a, b, c), p=2.0)
    quots = [q for _, q in metric_derivative(curve)]
    assert quots[0] == pytest.approx(2.0 * math.sqrt(2.0))
    assert quots[1] == pytest.approx(4.0 * math.sqrt(2.0))


def test_p_energy_epsilon_geodesic():
    flow = geodesic(epsilon_x(), epsilon_y(0.1), 2.0, QUARTER_GRID)
    curve = GridCurve(grid=flow.grid,
                      processes=tuple(flow.process_at(i) for i in range(5)), p=2.0)
    assert p_energy(curve) == pytest.approx(2.01, abs=1e-9)


def test_flow_energy_examples(dirac_pair):
    x, y = dirac_pair
    const = geodesic(x, x, 2.0, (0.0, 1.0))
    assert flow_energy(const, 2.0) == 0.0
    dirac = geodesic(x, y, 2.0, QUARTER_GRID)
    assert flow_energy(dirac, 2.0) == pytest.approx(13.0, abs=1e-9)
    eps = geodesic(epsilon_x(), epsilon_y(0.1), 2.0, QUARTER_GRID)
    assert flow_energy(eps, 2.0) == pytest.approx(2.01, abs=1e-9)


def test_flow_energy_matches_distance_for_geodesics_any_grid():
    rng = np.random.default_rng(229)
    for grid in [(0.0, 1.0), (0.0, 0.3, 1.0), dyadic_grid(2)]:
        x, y = random_pair(rng, depth=2, max_branch=2)
        total, _ = aw_distance(x, y, 2.0)
        flow = geodesic(x, y, 2.0, grid)
        assert flow_energy(flow, 2.0) == pytest.approx(total**2, abs=1e-9)


def test_flow_energy_dominates_distance_for_perturbed_flows():
    rng = np.random.default_rng(233)
    for _ in range(5):
        x, y = random_pair(rng, depth=2, max_branch=2)
        total, _ = aw_distance(x, y, 2.0)
        flow = geodesic(x, y, 2.0, (0.0, 0.5, 1.0))
        bump = {nid: tuple(v + 2.5 for v in lab) for nid, lab in flow.labels[1].items()}
        bent = flow.with_labels(1, bump)
        energy = flow_energy(bent, 2.0)
        assert energy >= total**2 - 1e-9
        assert energy > total**2 + 1e-6


def flow_energy_by_leaf(flow, p):
    """Per-leaf loop over label paths; the reference for the array code."""
    reach = flow.base.reach_prob
    total = 0.0
    for leaf in flow.base.leaves:
        for i in range(len(flow.grid) - 1):
            du = flow.grid[i + 1] - flow.grid[i]
            a, b = flow.label_path(leaf, i), flow.label_path(leaf, i + 1)
            total += reach[leaf] * du ** (1.0 - p) * sum(step_cost(s, t, p) for s, t in zip(a, b))
    return total


def step_power_by_leaf(flow, p):
    """Per-interval expected p-th power of the particle step, leaf by leaf."""
    reach = flow.base.reach_prob
    out = []
    for i in range(len(flow.grid) - 1):
        rhs = 0.0
        for leaf in flow.base.leaves:
            a, b = flow.label_path(leaf, i), flow.label_path(leaf, i + 1)
            rhs += reach[leaf] * sum(step_cost(s, t, p) for s, t in zip(a, b))
        out.append(rhs)
    return out


def reference_flows(rng, p):
    """A geodesic on a pair whose dims differ by level, a represented curve
    of three processes, a Skorokhod flow and a flow with shuffled labels."""
    x, y = random_pair(rng, depth=3, dims=(1, 2, 3), max_branch=3)
    geo = geodesic(x, y, p, dyadic_grid(2))
    curve = GridCurve(grid=(0.0, 0.4, 1.0), p=p,
                      processes=tuple(random_process(rng, 2, (2, 1), 3) for _ in range(3)))
    seq = [random_process(rng, 2, (1, 1), 2) for _ in range(3)]
    return [geo, represent_curve(curve), skorokhod(seq[:2], seq[2], p),
            shuffle_level_labels(geo, 2, 3, rng)]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_flow_energy_and_step_powers_match_the_leaf_loops(p):
    rng = np.random.default_rng(251)
    for flow in reference_flows(rng, p):
        assert flow_energy(flow, p) == pytest.approx(flow_energy_by_leaf(flow, p), rel=1e-12)
        rhs = [e.rhs for e in verify_flow_ac(flow, p)]
        assert rhs == pytest.approx(step_power_by_leaf(flow, p), rel=1e-12)
    z = random_process(rng, 3, (1, 2, 1), 3)
    const = geodesic(z, z, p, dyadic_grid(2))
    assert flow_energy(const, p) == 0.0
    assert all(e.rhs == 0.0 for e in verify_flow_ac(const, p))


# -- verify_flow_ac ------------------------------------------------------------

def test_verify_flow_ac_geodesic_has_zero_slack():
    flow = geodesic(epsilon_x(), epsilon_y(0.1), 2.0, QUARTER_GRID)
    for entry in verify_flow_ac(flow, 2.0):
        assert abs(entry.slack) <= 1e-9
        assert entry.slack >= -1e-9


def test_verify_flow_ac_constant_flow_all_zero():
    x = epsilon_x()
    flow = geodesic(x, x, 2.0, (0.0, 0.5, 1.0))
    for entry in verify_flow_ac(flow, 2.0):
        assert entry.lhs == pytest.approx(0.0, abs=1e-12)
        assert entry.rhs == pytest.approx(0.0, abs=1e-12)


def test_verify_flow_ac_shuffled_labels_strictly_positive_slack():
    rng = np.random.default_rng(239)
    x, y = epsilon_x(), epsilon_y(0.1)
    flow = geodesic(x, y, 2.0, (0.0, 0.5, 1.0))
    found_positive = False
    for _ in range(10):
        bent = shuffle_level_labels(flow, 1, flow.base.depth, rng)
        report = verify_flow_ac(bent, 2.0)
        assert all(e.slack >= -1e-9 for e in report)
        if any(e.slack > 1e-9 for e in report):
            found_positive = True
            break
    assert found_positive


# -- represent_curve ----------------------------------------------------------

def test_represent_two_point_curve_matches_geodesic():
    rng = np.random.default_rng(241)
    x, y = random_pair(rng, depth=2, max_branch=2)
    curve = GridCurve(grid=(0.0, 1.0), processes=(x, y), p=2.0)
    flow = represent_curve(curve)
    geo = geodesic(x, y, 2.0, (0.0, 1.0))
    assert len(flow.base.leaves) == len(geo.base.leaves)
    assert flow_energy(flow, 2.0) == pytest.approx(flow_energy(geo, 2.0), abs=1e-9)
    for i in range(2):
        d, _ = aw_distance(flow.process_at(i), geo.process_at(i), 2.0)
        assert d <= 1e-9


def test_represent_out_and_back_energy():
    a = chain_process([0.0, 0.0])
    b = chain_process([1.0, 1.0])
    for p in (1.0, 2.0):
        curve = GridCurve(grid=(0.0, 0.5, 1.0), processes=(a, b, a), p=p)
        flow = represent_curve(curve)
        d = path_distance([(0.0,), (0.0,)], [(1.0,), (1.0,)], p)
        hand = 2.0 * 0.5 ** (1.0 - p) * d**p
        assert flow_energy(flow, p) == pytest.approx(hand, abs=1e-9)


def test_represent_matches_targets_and_interval_energy():
    # order one: the zero distances are free of p-th-root noise amplification
    rng = np.random.default_rng(251)
    for _ in range(5):
        procs = tuple(random_process(rng, 2, (1, 1), 2) for _ in range(4))
        curve = GridCurve(grid=(0.0, 0.3, 0.7, 1.0), processes=procs, p=1.0)
        flow = represent_curve(curve)
        assert validate(flow.base) == []
        for i in range(4):
            d, _ = aw_distance(flow.process_at(i), procs[i], 1.0)
            assert d <= 1e-9
        assert check_multicausal(flow.coupling)
        expected = sum(
            aw_distance(procs[i], procs[i + 1], 1.0)[0] for i in range(3)
        )
        assert flow_energy(flow, 1.0) == pytest.approx(expected, abs=1e-9)
        assert p_energy(curve) <= flow_energy(flow, 1.0) + 1e-9


def test_represent_order_two_energy_and_certificate():
    # at order two the lifted processes match their targets through the
    # explicit zero-cost bicausal coupling; the full solver agrees up to the
    # usual float slack of the squared problem
    from adawass import check_bicausal, factor_plan

    rng = np.random.default_rng(263)
    for _ in range(5):
        procs = tuple(random_process(rng, 2, (1, 1), 2) for _ in range(4))
        curve = GridCurve(grid=(0.0, 0.3, 0.7, 1.0), processes=procs, p=2.0)
        flow = represent_curve(curve)
        for i in range(4):
            lifted = factor_plan(flow.coupling, i, 2.0)
            assert lifted.value <= 1e-12
            assert check_bicausal(lifted)
            d, _ = aw_distance(flow.process_at(i), procs[i], 2.0)
            assert d <= 1e-7
        expected = sum(
            (curve.grid[i + 1] - curve.grid[i]) ** (1.0 - 2.0)
            * aw_distance(procs[i], procs[i + 1], 2.0)[0] ** 2
            for i in range(3)
        )
        assert flow_energy(flow, 2.0) == pytest.approx(expected, abs=1e-9)
        assert p_energy(curve) <= flow_energy(flow, 2.0) + 1e-9


def test_represent_dyadic_refinement_keeps_energy():
    rng = np.random.default_rng(257)
    x, y = random_pair(rng, depth=2, max_branch=2)
    total, _ = aw_distance(x, y, 2.0)
    for level in (1, 2):
        flow = geodesic(x, y, 2.0, dyadic_grid(level))
        curve = GridCurve(
            grid=flow.grid,
            processes=tuple(flow.process_at(i) for i in range(len(flow.grid))),
            p=2.0,
        )
        assert p_energy(curve) == pytest.approx(total**2, abs=1e-7)


def test_represent_piecewise_constant_interpolation_flag():
    a, b = chain_process([0.0, 0.0]), chain_process([2.0, 2.0])
    curve = GridCurve(grid=(0.0, 1.0), processes=(a, b), p=2.0)
    flow = represent_curve(curve, interpolation="constant")
    leaf = flow.base.leaves[0]
    labels = flow.labels_at(0.5)
    # sigma-style step flow holds its left value between grid points
    assert labels[leaf] == flow.labels[0][leaf]
    linear = represent_curve(curve)
    assert linear.labels_at(0.5)[leaf][0] == pytest.approx(1.0)


def test_grid_curve_validation():
    x = epsilon_x()
    with pytest.raises(ValueError):
        GridCurve(grid=(0.0, 0.5), processes=(x, x), p=2.0)
    with pytest.raises(ValueError):
        GridCurve(grid=(0.0, 0.5, 0.5, 1.0), processes=(x,) * 4, p=2.0)
    with pytest.raises(ShapeMismatchError):
        GridCurve(grid=(0.0, 1.0), processes=(x, chain_process([1.0])), p=2.0)


# -- weighted p-variation ------------------------------------------------------

def test_weighted_variation_constant_sequence():
    x = epsilon_x()
    total, weights = weighted_p_variation([x, x, x], 2.0)
    assert total == 0.0
    assert all(w == 0.0 for w in weights)


def test_weighted_variation_single_unit_step():
    a, b = chain_process([0.0]), chain_process([1.0])
    total, _ = weighted_p_variation([a, b], 2.0, weights=[1.0])
    assert total == pytest.approx(1.0)


def test_weighted_variation_canonical_dirac_sequence():
    seq = [chain_process([1.0 / n, 1.0 / n]) for n in range(1, 9)]
    total, weights = weighted_p_variation(seq, 2.0)
    dists = [math.sqrt(2.0) * (1.0 / n - 1.0 / (n + 1)) for n in range(1, 8)]
    s = sum(dists)
    assert weights == pytest.approx(tuple(d / s for d in dists))
    assert total == pytest.approx(s**2, abs=1e-12)


def test_weighted_variation_rejects_bad_weights():
    a, b = chain_process([0.0]), chain_process([1.0])
    with pytest.raises(ValueError):
        weighted_p_variation([a, b], 2.0, weights=[-0.5])
    with pytest.raises(ValueError):
        weighted_p_variation([a, b], 2.0, weights=[0.4, 0.6])
    with pytest.raises(ValueError):
        weighted_p_variation([a, b], 2.0, weights=[math.nan])


# -- skorokhod ----------------------------------------------------------------

def test_skorokhod_constant_sequence_is_constant_flow():
    x = epsilon_x()
    flow = skorokhod([x, x, x], x, 2.0)
    assert flow_energy(flow, 2.0) <= 1e-12
    for i in range(len(flow.grid)):
        assert aw_distance(flow.process_at(i), x, 2.0)[0] <= 1e-9


def test_skorokhod_dirac_sequence_monotone_particles():
    seq = [chain_process([1.0 / n, 1.0 / n]) for n in range(1, 9)]
    limit = chain_process([0.0, 0.0])
    flow = skorokhod(seq, limit, 2.0)
    assert len(flow.base.leaves) == 1
    for n in range(len(flow.grid)):
        assert aw_distance(flow.process_at(n), flow.targets[n], 2.0)[0] <= 1e-9
    leaf = flow.base.leaves[0]
    last = len(flow.grid) - 1
    dists = [
        path_distance(flow.label_path(leaf, n), flow.label_path(leaf, last), 2.0)
        for n in range(len(flow.grid))
    ]
    assert all(dists[i] >= dists[i + 1] - 1e-12 for i in range(len(dists) - 1))
    assert dists[-1] <= 1e-9


def test_skorokhod_epsilon_sequence():
    seq = [epsilon_y(0.5**n) for n in range(1, 6)]
    limit = epsilon_y(0.0)
    flow = skorokhod(seq, limit, 2.0)
    for n in range(len(flow.grid)):
        assert aw_distance(flow.process_at(n), flow.targets[n], 2.0)[0] <= 1e-9
    # every particle converges to its terminal position
    last = len(flow.grid) - 1
    for leaf in flow.base.leaves:
        dists = [
            path_distance(flow.label_path(leaf, n), flow.label_path(leaf, last), 2.0)
            for n in range(len(flow.grid))
        ]
        assert dists[-1] == 0.0
        assert max(dists) <= 0.5 + 1e-9
        assert all(dists[i] >= dists[i + 1] - 1e-12 for i in range(len(dists) - 1))


def test_skorokhod_explicit_weights_place_grid():
    a, b, c = (chain_process([float(k), float(k)]) for k in range(3))
    flow = skorokhod([a, b], c, 2.0, weights=[0.25, 0.75])
    assert flow.grid == (0.0, 0.25, 1.0)


def test_skorokhod_rejects_bad_weights():
    a, b = chain_process([0.0]), chain_process([1.0])
    with pytest.raises(ValueError):
        skorokhod([a], b, 2.0, weights=[0.5])
    with pytest.raises(ValueError):
        skorokhod([a, b], b, 2.0, weights=[-1.0, 2.0])
    with pytest.raises(ValueError):
        skorokhod([a, b], b, 2.0, weights=[math.nan, 1.0])
