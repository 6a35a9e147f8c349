"""The paper's results on curves of processes, property by property.

Constant-speed geodesics, the adapted Benamou-Brenier formula, the
representation of a grid curve as a flow on one common filtered space, and
the Skorokhod-type representation of a convergent sequence, each checked
over small random trees (``conftest.random_pair``) drawn from a seed that
hypothesis picks, with the settings of every property test in the suite
(``conftest.FUZZ``).  They guard the curve totals (``flow_energy``,
``verify_flow_ac``, ``p_energy``) and the gluing that every flow runs through.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from adawass import (BicausalPlan, CommonSpaceFlow, GridCurve, aw_distance, canonicalize, check_multicausal,
                     equivalent, flow_energy, geodesic, glue, p_energy, represent_curve, skorokhod, verify_flow_ac)

from conftest import FUZZ, random_pair

ORDERS = st.sampled_from([1.0, 1.5, 2.0, 3.0])
SEEDS = st.integers(0, 2**32 - 1)
# Relative slack between two computations of one value, an energy or a
# distance: each sums a few dozen path costs times masses, with rounding
# near 1e-16 per term.
SAME_VALUE = 1e-12
# A flow's process at a grid point equals its target only up to mass
# rounding: the glued masses are products and ratios of kernel entries, so
# each of N nodes' masses over depth T errs by about (N + T) * 2**-53, and
# a misplaced mass moves at most its level's value diameter (the diagonal of
# the box holding both trees' values).  AW_1 of the two then errs by at most
# about (N + T) * 2**-53 times the sum over levels of the diameters; the
# bound below is eight times that.  It is never zero: ``equivalent`` with a
# zero tolerance compares the exact canonical forms, and rounding can part
# their merged masses even where every value agrees and AW_1 is zero.
_ROUNDING_SLACK = 2.0 ** -50


def rounding_bound(a, b):
    """The bound on AW_1 between a flow's process ``a`` and its target ``b``."""
    diameters = 0.0
    for la, lb in zip(a.layout[1:], b.layout[1:]):
        both = np.concatenate([la.values, lb.values])
        diameters += math.dist(both.min(axis=0), both.max(axis=0))
    nodes = len(a.columns.ids) + len(b.columns.ids)
    return max(_ROUNDING_SLACK * (nodes + a.depth) * diameters, math.ulp(0.0))


def close(a, b):
    return abs(a - b) <= SAME_VALUE * max(abs(a), abs(b))


def assert_marginals_match(flow):
    """Every grid point with a target carries that target, up to mass
    rounding, and the flow's coupling is multicausal."""
    for i, target in enumerate(flow.targets):
        if target is not None:
            proc = flow.process_at(i)
            assert equivalent(proc, target, tol=rounding_bound(proc, target))
    assert check_multicausal(flow.coupling)


def curve_of(rng, count):
    """``count`` random processes of one depth and value dims."""
    depth = int(rng.integers(1, 4))
    dims = tuple(int(rng.integers(1, 3)) for _ in range(depth))
    procs = []
    while len(procs) < count:
        procs.extend(random_pair(rng, depth, dims, max_branch=2))
    return procs[:count]


@FUZZ
@given(seed=SEEDS, p=ORDERS)
def test_a_geodesic_has_constant_speed_and_energy_aw_p(seed, p):
    x, y = random_pair(np.random.default_rng(seed))
    flow = geodesic(x, y, p, (0.0, 0.25, 0.5, 1.0))
    dist = aw_distance(x, y, p)[0]
    assert close(flow_energy(flow, p), dist**p)
    assert close(aw_distance(flow.process_at(1), flow.process_at(2), p)[0], 0.25 * dist)
    assert close(aw_distance(x, flow.process_at(2), p)[0], 0.5 * dist)
    for interval in verify_flow_ac(flow, p):
        assert abs(interval.slack) <= SAME_VALUE * max(interval.lhs, interval.rhs)
    assert_marginals_match(flow)


@FUZZ
@given(seed=SEEDS, p=ORDERS)
def test_the_independent_coupling_bounds_the_energy_from_above(seed, p):
    # adapted Benamou-Brenier: AW_p^p is the least energy of a flow on a
    # common filtered space from x to y, so the product flow's is no less
    x, y = random_pair(np.random.default_rng(seed))
    coupling = glue([BicausalPlan.product(x, y, p)])
    ends = list(zip(coupling.factor_values(0), coupling.factor_values(1)))
    labels = [[(1.0 - u) * a + u * b for a, b in ends] for u in (0.0, 0.5, 1.0)]
    flow = CommonSpaceFlow(base=coupling.product, grid=(0.0, 0.5, 1.0), labels=labels, p=p)
    assert flow_energy(flow, p) >= aw_distance(x, y, p)[0] ** p * (1.0 - SAME_VALUE)
    for interval in verify_flow_ac(flow, p):
        assert interval.slack >= -SAME_VALUE * interval.lhs
    assert check_multicausal(coupling)


@FUZZ
@given(seed=SEEDS, p=ORDERS, u=st.sampled_from([0.25, 0.5, 0.625]), count=st.integers(3, 4))
def test_a_represented_curve_carries_its_processes_at_its_energy(seed, p, u, count):
    procs = curve_of(np.random.default_rng(seed), count)
    grid = (0.0, u, 1.0) if count == 3 else (0.0, u / 2, u, 1.0)
    curve = GridCurve(grid=grid, processes=tuple(procs), p=p)
    flow = represent_curve(curve)
    # optimal plans on every interval: the particles' cost is AW_p^p there
    for interval in verify_flow_ac(flow, p):
        assert abs(interval.slack) <= SAME_VALUE * max(interval.lhs, interval.rhs)
    assert close(flow_energy(flow, p), p_energy(curve))
    assert_marginals_match(flow)


@FUZZ
@given(seed=SEEDS, p=ORDERS, count=st.integers(1, 3), repeat=st.booleans(), weighted=st.booleans())
def test_skorokhod_ends_at_its_limit(seed, p, count, repeat, weighted):
    # the limit may repeat the sequence's last law, a last leg of length zero
    procs = curve_of(np.random.default_rng(seed), count + 1)
    seq, limit = procs[:-1], canonicalize(procs[-2]) if repeat else procs[-1]
    weights = [1.0 / count] * count if weighted else None
    flow = skorokhod(seq, limit, p, weights=weights)
    assert flow.grid[-1] == 1.0 and flow.targets[-1] is limit
    assert_marginals_match(flow)
