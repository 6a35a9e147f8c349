import math

import numpy as np
import pytest

from adawass import (
    BicausalPlan,
    CommonSpaceFlow,
    GridCurve,
    ShapeMismatchError,
    TreeNode,
    TreeProcess,
    aw_distance,
    aw_distance_lp,
    build_process,
    chain_process,
    check_multicausal,
    dyadic_grid,
    factor_plan,
    flow_energy,
    geodesic,
    glue,
    metric_derivative,
    p_energy,
    path_distance,
    process_with_values,
    represent_curve,
    skorokhod,
    validate,
    verify_flow_ac,
    weighted_p_variation,
)
from adawass import curves
from adawass.cli import _flow_json, _tree_json
from adawass.curves import MAX_DYADIC_LEVEL
from adawass.trees import tree_from_dict, tree_to_dict

from conftest import (
    assert_same_layout,
    epsilon_x,
    epsilon_y,
    layout_by_nodes,
    random_pair,
    random_process,
    step_cost,
)

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


@pytest.mark.parametrize("interpolation", ["linear", "constant"])
def test_labels_at_rejects_nan(interpolation):
    a, b = chain_process([0.0, 0.0]), chain_process([2.0, 2.0])
    curve = GridCurve(grid=(0.0, 0.5, 1.0), processes=(a, b, a), p=2.0)
    flow = represent_curve(curve, interpolation=interpolation)
    with pytest.raises(ValueError, match="u must be a number, got nan"):
        flow.labels_at(math.nan)


@pytest.mark.parametrize("grid, interpolation, message", [
    # the README flow: flow_energy -0.5025 when unchecked (2.0100000000000002 on its own grid)
    ((0.0, 1.0, 0.5), "linear", r"must run from 0 to 1, got \(0.0, 1.0, 0.5\)"),
    ((0.2, 0.5, 0.9), "linear", "must run from 0 to 1"),
    ((0.0, 0.5, 1.0), "cubic", "interpolation must be 'linear' or 'constant', got 'cubic'"),
    ((0.0, math.nan, 1.0), "linear", "strictly increasing"),
])
def test_flow_rejects_a_bad_grid_or_interpolation(grid, interpolation, message):
    flow = geodesic(epsilon_x(), epsilon_y(0.1), 2.0, (0.0, 0.5, 1.0))
    with pytest.raises(ValueError, match=message):
        CommonSpaceFlow(base=flow.base, grid=grid, labels=flow.labels, p=2.0, interpolation=interpolation)


def test_flow_rejects_labels_that_miss_the_grid_or_a_node():
    # the README pair: two labellings on a three-point grid must not yield a
    # flow energy (2.0100000000000002 when unchecked)
    flow = geodesic(epsilon_x(), epsilon_y(0.1), 2.0, (0.0, 0.5, 1.0))
    with pytest.raises(ValueError, match="2 labellings for a grid of 3 points"):
        CommonSpaceFlow(base=flow.base, grid=flow.grid, labels=flow.labels[:2], p=2.0)
    partial = dict(flow.labels[1])
    missing = flow.base.leaves[-1]
    del partial[missing]
    with pytest.raises(ValueError, match=f"labelling 1: no value for node {missing}$"):
        flow.with_labels(1, partial)
    with pytest.raises(ValueError, match="labelling 0: no value for node"):
        flow.with_labels(0, partial)
    wide = {nid: lab + (0.0,) for nid, lab in flow.labels[2].items()}
    with pytest.raises(ValueError, match=r"labelling 2 has value dims \(2, 2\), the base tree \(1, 1\)"):
        flow.with_labels(2, wide)
    with pytest.raises(ValueError, match="is not a leaf"):
        flow.label_path(flow.base.root_id, 0)


def order_calls():
    """Every library function that takes an order p, as a call on p."""
    x, y = epsilon_x(), epsilon_y(0.1)
    masses = aw_distance(x, y, 2.0)[1].pair_masses
    flow = geodesic(x, y, 2.0, (0.0, 0.5, 1.0))
    return {
        "path_distance": lambda p: path_distance([(0.0,)], [(1.0,)], p),
        "aw_distance": lambda p: aw_distance(x, y, p),
        "aw_distance_lp": lambda p: aw_distance_lp(x, y, p),
        "from_pair_masses": lambda p: BicausalPlan.from_pair_masses(x, y, p, masses),
        "GridCurve": lambda p: GridCurve(grid=(0.0, 1.0), processes=(x, y), p=p),
        "flow_energy": lambda p: flow_energy(flow, p),
    }


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.5])
@pytest.mark.parametrize("name", sorted(order_calls()))
def test_orders_must_be_finite_and_at_least_one(name, p):
    # unchecked, path_distance returned 1.0 for NaN and inf, aw_distance_lp NaN
    with pytest.raises(ValueError, match=f"^order p must be a finite number >= 1, got {p}$"):
        order_calls()[name](p)


def test_flow_base_is_its_first_labelling():
    # a base whose values differ from labels[0]: when the flow kept that base,
    # process_at(0) was (5, 6) against labels (0, 1) and verify_flow_ac read
    # a slack of -25
    base = build_process([1], [(0.5, 5.0, []), (0.5, 6.0, [])])
    labels = ({1: (0.0,), 2: (1.0,)},) * 2
    flow = CommonSpaceFlow(base=base, grid=(0.0, 1.0), labels=labels, p=2.0)
    assert [n.value for n in flow.process_at(0).nodes] == [None, (0.0,), (1.0,)]
    assert dict(flow.labels[0]) == labels[0]
    assert all(s.slack >= 0.0 for s in verify_flow_ac(flow, 2.0))
    moved = flow.with_labels(0, {1: (2.0,), 2: (3.0,)})
    assert [n.value for n in moved.process_at(0).nodes] == [None, (2.0,), (3.0,)]
    assert moved.base is moved.process_at(0)
    assert dict(moved.labels[1]) == labels[1]


# -- label arrays against the former per-node code ------------------------------

def geodesic_labels_by_node(coupling, u):
    """Every product node but the root with (1-u) times its x value plus u
    times its y value, node by node."""
    x, y = coupling.processes
    return {nid: tuple((1.0 - u) * a + u * b for a, b in zip(x.node(tx).value, y.node(ty).value))
            for nid, (tx, ty) in coupling.node_tuple.items() if nid != coupling.product.root_id}


def factor_labels_by_node(coupling, i):
    """Every product node but the root with its i-th factor node's value
    tuple; the former labelling of represented curves."""
    proc = coupling.processes[i]
    return {nid: proc.node(tup[i]).value for nid, tup in coupling.node_tuple.items()
            if nid != coupling.product.root_id}


def relabel_by_node(proc, values, value_dims=None):
    """The former process_with_values: node by node, values through float()."""
    dims = tuple(value_dims) if value_dims is not None else proc.value_dims
    nodes = [n if n.parent is None else
             TreeNode(id=n.id, parent=n.parent, time=n.time,
                      value=tuple(float(v) for v in values[n.id]), prob=n.prob)
             for n in proc.nodes]
    return TreeProcess(depth=proc.depth, value_dims=dims, nodes=tuple(nodes))


def labels_at_by_node(flow, u):
    """The former labels_at: a linear scan of the grid, a dict per node."""
    g = flow.grid
    if u <= g[0]:
        return dict(flow.labels[0])
    if u >= g[-1]:
        return dict(flow.labels[-1])
    k = max(i for i in range(len(g)) if g[i] <= u)
    if flow.interpolation == "constant" or g[k] == u:
        return dict(flow.labels[k])
    w = (u - g[k]) / (g[k + 1] - g[k])
    return {nid: tuple((1.0 - w) * a + w * b for a, b in zip(lab, flow.labels[k + 1][nid]))
            for nid, lab in flow.labels[k].items()}


def label_path_by_walk(flow, leaf, i):
    """The former label_path: up the parents from the leaf."""
    out, nid = [], leaf
    while flow.base.node(nid).parent is not None:
        out.append(flow.labels[i][nid])
        nid = flow.base.node(nid).parent
    return tuple(reversed(out))


def hex_labels(labels):
    """A labelling as (node, label) items with floats as hex strings, so ==
    compares bits and key order."""
    return [(nid, tuple(float(v).hex() for v in lab)) for nid, lab in labels.items()]


def tree_bits(proc):
    nodes = [(n.id, n.parent, n.time, None if n.value is None else tuple(float(v).hex() for v in n.value),
              float(n.prob).hex()) for n in proc.nodes]
    return proc.depth, proc.value_dims, nodes


def assert_relabelled(tree, reference):
    """A relabelled tree equals its node-by-node rebuild: the same nodes, bit
    for bit, the same document, and a layout equal to the one the former
    builder makes from the rebuild's nodes."""
    assert tree_bits(tree) == tree_bits(reference)
    assert _tree_json(tree) == _tree_json(reference)
    assert_same_layout(tree.layout, layout_by_nodes(reference))


def test_label_arrays_match_the_per_node_references():
    rng = np.random.default_rng(271)
    x, y = random_pair(rng, depth=3, dims=(1, 2, 3), max_branch=3)
    geo = geodesic(x, y, 1.5, dyadic_grid(2))
    curve = GridCurve(grid=(0.0, 0.4, 1.0), p=2.0,
                      processes=tuple(random_process(rng, 2, (2, 1), 3) for _ in range(3)))
    seq = [random_process(rng, 2, (1, 1), 2) for _ in range(3)]
    # library-built trees with int values: their labels become floats
    ints = GridCurve(grid=(0.0, 1.0), p=2.0,
                     processes=(chain_process([[1], [2, 3]]), chain_process([[4], [-5, 6]])))
    cases = [(geo, [geodesic_labels_by_node(geo.coupling, u) for u in geo.grid])]
    for flow in (represent_curve(curve), skorokhod(seq[:2], seq[2], 2.0), represent_curve(ints)):
        cases.append((flow, [factor_labels_by_node(flow.coupling, i) for i in range(len(flow.grid))]))
    for flow, reference in cases:
        product = flow.coupling.product
        for i, ref in enumerate(reference):
            assert hex_labels(flow.labels[i]) == hex_labels(ref)
            assert_relabelled(flow.process_at(i), relabel_by_node(product, ref, flow.base.value_dims))
        for u in (-0.5, 0.0, 0.1, 0.25, 0.4, 0.7, 1.0, 2.0):
            assert hex_labels(flow.labels_at(u)) == hex_labels(labels_at_by_node(flow, u))
        for i in range(len(flow.grid)):
            for leaf in flow.base.leaves:
                assert flow.label_path(leaf, i) == label_path_by_walk(flow, leaf, i)
        for i, proc in enumerate(flow.coupling.processes):
            lifted = factor_plan(flow.coupling, i, flow.p)
            assert_relabelled(lifted.y, relabel_by_node(product, factor_labels_by_node(flow.coupling, i),
                                                        proc.value_dims))
            reach = product.reach_prob
            masses = {(flow.coupling.node_tuple[leaf][i], leaf): reach[leaf] for leaf in product.leaves}
            assert list(lifted.pair_masses.items()) == list(masses.items())


def test_relabelling_keeps_any_node_order():
    # relabelled trees listed depth-first, breadth-first and leaves first,
    # so that the node list and the layout order differ; new value dims
    rng = np.random.default_rng(613)
    for _ in range(10):
        proc = random_process(rng, 3, (1, 2, 1), 3)
        doc = tree_to_dict(proc)
        for order in (None, lambda n: n["time"], lambda n: -n["time"]):
            listed = proc if order is None else tree_from_dict(dict(doc, nodes=sorted(doc["nodes"], key=order)))
            values = {n.id: tuple(rng.normal(size=1 + n.time % 2).tolist())
                      for n in listed.nodes if n.parent is not None}
            levels = [np.array([values[i] for i in listed.level(t)]) for t in range(1, listed.depth + 1)]
            reference = relabel_by_node(listed, values, (2, 1, 2))
            for given in (values, levels):
                assert_relabelled(process_with_values(listed, given), reference)


def test_the_flow_path_builds_no_nodes():
    # glue hands the product its level arrays and a flow relabels them: no
    # per-node view is built on the way to the flow document
    rng = np.random.default_rng(5)
    curve = GridCurve(grid=QUARTER_GRID, p=2.0,
                      processes=tuple(random_process(rng, 3, (1, 1, 1), 2) for _ in QUARTER_GRID))
    flow = represent_curve(curve)
    _flow_json(flow)
    for tree in (flow.coupling.product, flow.base):
        assert not {"nodes", "by_id", "children_map"} & set(vars(tree))


def test_grid_curve_validation():
    x = epsilon_x()
    with pytest.raises(ValueError, match="^one process per grid point required$"):
        GridCurve(grid=(0.0, 0.5, 1.0), processes=(x, x), p=2.0)
    with pytest.raises(ValueError):
        GridCurve(grid=(0.0, 0.5), processes=(x, x), p=2.0)
    with pytest.raises(ValueError):
        GridCurve(grid=(0.0, 0.5, 0.5, 1.0), processes=(x,) * 4, p=2.0)
    with pytest.raises(ShapeMismatchError):
        GridCurve(grid=(0.0, 1.0), processes=(x, chain_process([1.0])), p=2.0)


@pytest.mark.parametrize("grid", [(0.0, math.nan, 1.0), (0.0, 0.5, math.nan, 1.0)])
def test_grids_with_a_nan_point_are_rejected(grid):
    # NaN compares false both ways, so "b <= a" let it through: the curve's
    # energy was nan and a geodesic's flow document held NaN tokens
    x = epsilon_x()
    with pytest.raises(ValueError, match="^grid must be strictly increasing$"):
        GridCurve(grid=grid, processes=(x,) * len(grid), p=2.0)
    with pytest.raises(ValueError, match="^grid must be strictly increasing$"):
        geodesic(x, epsilon_y(0.1), 2.0, grid)


@pytest.mark.parametrize("level", [-1, MAX_DYADIC_LEVEL + 1, 40])
def test_dyadic_grids_past_their_levels_are_rejected(level):
    # -1 used to raise a TypeError, and 40 to start building 2**40 + 1 floats
    with pytest.raises(ValueError, match=f"^dyadic level must be in 0..{MAX_DYADIC_LEVEL}, got {level}$"):
        dyadic_grid(level)
    assert dyadic_grid(0) == (0.0, 1.0)


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


@pytest.fixture
def solves(monkeypatch):
    """The pairs that the curves code hands to ``aw_distance``, which still runs."""
    calls, solve = [], curves.aw_distance

    def spy(x, y, p):
        calls.append((x, y))
        return solve(x, y, p)

    monkeypatch.setattr(curves, "aw_distance", spy)
    return calls


@pytest.mark.parametrize("seq, weights, copies, grid, expected", [
    ([1.0, 0.5, 0.25], None, 1, (0.0, 0.5, 0.75, 1.0), 3),
    # the second process is dropped, so the leg from the first to the third is new
    ([1.0, 1.0, 0.5], None, 1, (0.0, 0.5, 1.0), 4),
    # every leg has length zero: one leg from the first process to the limit
    ([0.0, 0.0, 0.0], None, 1, (0.0, 1.0), 4),
    ([0.0], None, 1, (0.0, 1.0), 1),
    ([1.0, 0.5], [0.25, 0.75], 1, (0.0, 0.25, 1.0), 2),
    # the last leg has length zero, the limit is another tree of the last
    # process's law: the curve ends at the limit, on a leg solved anew
    ([1.0, 0.0], None, 2, (0.0, 1.0), 3),
], ids=["every leg kept", "a leg dropped", "every leg zero", "one zero leg", "weights", "last leg zero"])
def test_skorokhod_solves_each_leg_once(solves, seq, weights, copies, grid, expected):
    procs = [chain_process([v, v]) for v in seq]
    # the path (0, 0) listed as this many equal branches
    limit = build_process([1, 1], [(1.0 / copies, 0.0, [(1.0, 0.0, [])])] * copies)
    flow = skorokhod(procs, limit, 2.0, weights)
    assert flow.grid == grid
    assert flow.targets[-1] is limit
    assert len(solves) == expected
    # the flow that represent_curve builds from the same grid curve, byte for byte
    curve = GridCurve(grid=flow.grid, processes=flow.targets, p=2.0)
    assert _flow_json(flow) == _flow_json(represent_curve(curve))


@pytest.mark.parametrize("call, message", [
    (lambda a, b: weighted_p_variation([a], 2.0), "need at least two processes"),
    (lambda a, b: weighted_p_variation([a, b, a], 2.0, weights=[0.6, 0.6]), r"weights sum to 1\.2 > 1"),
    # summed left to right on any interpreter: the builtin sum of Python 3.12 says 1.1
    (lambda a, b: weighted_p_variation([a, b] * 6, 2.0, weights=[0.1] * 11),
     r"weights sum to 1\.0999999999999999 > 1"),
    (lambda a, b: skorokhod([], b, 2.0), "empty sequence"),
    (lambda a, b: glue([]), "no plans to glue"),
], ids=["one process", "weights past one", "weights summed in order", "no sequence", "no plans"])
def test_chains_reject_too_few_processes_or_too_much_weight(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(chain_process([0.0]), chain_process([1.0]))


def test_skorokhod_rejects_bad_weights():
    a, b = chain_process([0.0]), chain_process([1.0])
    with pytest.raises(ValueError):
        skorokhod([a], b, 2.0, weights=[0.5])
    with pytest.raises(ValueError):
        skorokhod([a, b], b, 2.0, weights=[-1.0, 2.0])
    with pytest.raises(ValueError):
        skorokhod([a, b], b, 2.0, weights=[math.nan, 1.0])
