import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import adawass
from adawass import DiscreteLaw, InfeasibleError, UnboundedError, lp_solve, w_distance
from adawass import discrete_ot
from adawass.discrete_ot import (
    MARGINAL_TOL,
    SolverError,
    _transport_2x2,
    _transport_simplex,
    solve_transport,
)

from conftest import is_feasible, marginal_errors


# -- independent oracles ------------------------------------------------------

def northwest_fill(mu, nu):
    """Greedy corner filling for given marginal orderings."""
    plan = np.zeros((len(mu), len(nu)))
    remain_r = list(mu)
    remain_c = list(nu)
    i = j = 0
    while i < len(mu) and j < len(nu):
        take = min(remain_r[i], remain_c[j])
        plan[i, j] = take
        remain_r[i] -= take
        remain_c[j] -= take
        if remain_r[i] <= 1e-15:
            i += 1
        if j < len(nu) and remain_c[j] <= 1e-15:
            j += 1
    return plan


def transport_vertex_enumeration(mu, nu, cost):
    """Minimum over every vertex reached by a northwest fill of a permuted problem."""
    best = np.inf
    n, m = len(mu), len(nu)
    for pr in itertools.permutations(range(n)):
        for pc in itertools.permutations(range(m)):
            plan = northwest_fill([mu[i] for i in pr], [nu[j] for j in pc])
            total = sum(
                plan[a, b] * cost[pr[a]][pc[b]] for a in range(n) for b in range(m)
            )
            best = min(best, total)
    return best


def transport_lp(mu, nu, cost):
    """The transport problem as an explicit LP for the generic simplex; returns the plan."""
    n, m = cost.shape
    a = np.zeros((n + m, n * m))
    for i in range(n):
        a[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a[n + j, j::m] = 1.0
    _, x = lp_solve(cost.ravel(), a, np.concatenate([mu, nu]))
    return x.reshape(n, m)


def closed_form_2x2(mu, nu, cost):
    """One 2x2 problem by its scalar closed form: mass on cell (0, 0) at lo or hi."""
    lo = max(0.0, mu[0] + nu[0] - 1.0)
    hi = min(mu[0], nu[0])
    gap = cost[0, 0] - cost[0, 1] - cost[1, 0] + cost[1, 1]
    theta = lo if gap > 1e-14 * np.abs(cost).max() else hi
    plan = np.array([[theta, mu[0] - theta], [nu[0] - theta, mu[1] - nu[0] + theta]])
    return np.maximum(plan, 0.0)


def lp_all_bases(c, a, b):
    """Optimum by enumerating every nonsingular basis; needs full row rank."""
    m, n = a.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, b)
        if x.min() >= -1e-9:
            val = float(np.asarray(c)[list(cols)] @ x)
            best = val if best is None or val < best else best
    return best


def w_cost_1d_sorted(points_mu, mass_mu, points_nu, mass_nu, p):
    """Quantile coupling cost; optimal in one dimension for convex costs."""
    src = sorted(zip(points_mu, mass_mu))
    dst = sorted(zip(points_nu, mass_nu))
    i = j = 0
    ri, rj = src[0][1], dst[0][1]
    total = 0.0
    while i < len(src) and j < len(dst):
        take = min(ri, rj)
        total += take * abs(src[i][0] - dst[j][0]) ** p
        ri -= take
        rj -= take
        if ri <= 1e-15:
            i += 1
            ri = src[i][1] if i < len(src) else 0.0
        if rj <= 1e-15:
            j += 1
            rj = dst[j][1] if j < len(dst) else 0.0
    return total


def random_law(rng, n, dim=1):
    raw = rng.uniform(0.1, 1.0, size=n)
    masses = raw / raw.sum()
    points = rng.normal(size=(n, dim))
    return DiscreteLaw.from_arrays(points, masses)


# -- lp_solve -----------------------------------------------------------------

def test_lp_trivial_equality():
    value, x = lp_solve([1.0], [[1.0]], [1.0])
    assert value == pytest.approx(1.0)
    assert x[0] == pytest.approx(1.0)


def test_lp_transport_reduction_consistency():
    # unif{0,1} to unif{2,3} with absolute-value cost: total cost 2
    cost = [[2.0, 3.0], [1.0, 2.0]]
    a = [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
    ]
    b = [0.5, 0.5, 0.5, 0.5]
    value, _ = lp_solve(np.ravel(cost), a, b)
    assert value == pytest.approx(2.0)


@pytest.mark.parametrize("a_mat, b, equality, message", [
    ([1.0, 1.0], [1.0], None, "constraint matrix must be two-dimensional"),
    ([[1.0, 1.0]], [1.0], None, "inconsistent LP shapes"),
    ([[1.0]], [1.0, 2.0], None, "inconsistent LP shapes"),
    ([[1.0]], [1.0], [True, False], "equality flags must match the number of rows"),
], ids=["flat matrix", "costs", "right-hand side", "equality flags"])
def test_lp_rejects_inconsistent_shapes(a_mat, b, equality, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        lp_solve([1.0], a_mat, b, equality)


def test_lp_reports_infeasible():
    with pytest.raises(InfeasibleError):
        lp_solve([1.0], [[1.0], [1.0]], [1.0, 2.0])


def test_lp_reports_unbounded():
    # min -x with x only bounded below
    with pytest.raises(UnboundedError):
        lp_solve([-1.0, 0.0], [[1.0, -1.0]], [0.0])


def test_lp_inequality_rows():
    value, x = lp_solve([-1.0], [[1.0]], [2.0], equality=[False])
    assert value == pytest.approx(-2.0)
    assert x[0] == pytest.approx(2.0)


def test_lp_matches_all_bases_oracle_on_random_instances():
    rng = np.random.default_rng(41)
    for _ in range(40):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(m + 1, 8))
        a = rng.uniform(0.2, 2.0, size=(m, n))
        if np.linalg.matrix_rank(a) < m:
            continue
        x0 = rng.uniform(0.0, 1.0, size=n)
        b = a @ x0
        c = rng.normal(size=n)
        # bounded: every column has positive weight in some equality row
        value, x = lp_solve(c, a, b)
        oracle = lp_all_bases(c, a, b)
        assert oracle is not None
        assert value == pytest.approx(oracle, abs=1e-8)
        assert np.abs(a @ x - b).max() <= 1e-8


def test_lp_deterministic_output():
    rng = np.random.default_rng(4)
    a = rng.uniform(0.1, 1.0, size=(3, 6))
    x0 = rng.uniform(0.1, 1.0, size=6)
    b = a @ x0
    c = rng.normal(size=6)
    runs = [lp_solve(c, a, b) for _ in range(3)]
    for value, x in runs[1:]:
        assert value == runs[0][0]
        assert (x == runs[0][1]).all()


# -- w_distance ---------------------------------------------------------------

def test_w_distance_identity():
    law = DiscreteLaw.from_arrays([[0.0], [1.0]], [0.5, 0.5])
    cost = [[0.0, 1.0], [1.0, 0.0]]
    value, plan = w_distance(law, law, cost)
    assert value == 0.0
    mat = plan.as_array()
    assert mat[0, 0] == pytest.approx(0.5)
    assert mat[1, 1] == pytest.approx(0.5)


def test_w_distance_translation_example():
    mu = DiscreteLaw.from_arrays([[0.0], [1.0]], [0.5, 0.5])
    nu = DiscreteLaw.from_arrays([[2.0], [3.0]], [0.5, 0.5])
    cost = [[abs(a - b) for b in (2.0, 3.0)] for a in (0.0, 1.0)]
    value, plan = w_distance(mu, nu, cost)
    assert value == pytest.approx(2.0)
    assert is_feasible(plan)


def test_w_distance_rejects_unbalanced():
    mu = DiscreteLaw.from_arrays([[0.0]], [1.0])
    bad = DiscreteLaw.from_arrays([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        w_distance(mu, bad, [[0.0]])


def test_w_distance_matches_vertex_enumeration():
    rng = np.random.default_rng(29)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        mu = random_law(rng, n)
        nu = random_law(rng, m)
        cost = rng.uniform(0.0, 3.0, size=(n, m))
        value, plan = w_distance(mu, nu, cost)
        oracle = transport_vertex_enumeration(mu.masses, nu.masses, cost)
        assert value == pytest.approx(oracle, abs=1e-9)
        assert is_feasible(plan)


def test_w_distance_closed_forms_match_simplex():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.choice([1, 2]))
        m = int(rng.choice([1, 2, 3])) if n == 1 else int(rng.choice([1, 2]))
        mu = random_law(rng, n)
        nu = random_law(rng, m)
        cost = rng.uniform(0.0, 3.0, size=(n, m))
        value, _ = w_distance(mu, nu, cost)
        reference = float(
            (transport_lp(np.asarray(mu.masses), np.asarray(nu.masses), cost) * cost).sum()
        )
        assert value == pytest.approx(reference, abs=1e-10)


def test_w_distance_1d_quantile_shortcut_equality():
    rng = np.random.default_rng(37)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        p = float(rng.choice([1.0, 2.0]))
        mu = random_law(rng, n)
        nu = random_law(rng, m)
        xs = [pt[0] for pt in mu.points]
        ys = [pt[0] for pt in nu.points]
        cost = [[abs(a - b) ** p for b in ys] for a in xs]
        value, _ = w_distance(mu, nu, cost)
        oracle = w_cost_1d_sorted(xs, mu.masses, ys, nu.masses, p)
        assert value == pytest.approx(oracle, abs=1e-9)


def test_w_distance_metric_properties_on_fuzz():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        laws = [random_law(rng, n, dim=2) for _ in range(3)]
        p = 2.0

        def dist(a, b):
            cost = [
                [sum((u - v) ** 2 for u, v in zip(pa, pb)) for pb in b.points]
                for pa in a.points
            ]
            return w_distance(a, b, cost)[0] ** (1.0 / p)

        d01, d10 = dist(laws[0], laws[1]), dist(laws[1], laws[0])
        assert d01 == pytest.approx(d10, abs=1e-9)
        assert dist(laws[0], laws[0]) <= 1e-12
        d02, d12 = dist(laws[0], laws[2]), dist(laws[1], laws[2])
        assert d01 <= d02 + d12 + 1e-9


def test_w_distance_plan_marginals_within_tolerance():
    rng = np.random.default_rng(47)
    for _ in range(20):
        mu = random_law(rng, int(rng.integers(1, 6)))
        nu = random_law(rng, int(rng.integers(1, 6)))
        cost = rng.uniform(0.0, 2.0, size=(len(mu), len(nu)))
        _, plan = w_distance(mu, nu, cost)
        row_err, col_err = marginal_errors(plan)
        assert row_err <= 1e-10 and col_err <= 1e-10


def fuzz_transport_instance(rng, kind, shape=None):
    """Masses and costs of one fuzz case; sizes 2..12 per side unless ``shape`` is given."""
    n, m = shape if shape is not None else (int(k) for k in rng.integers(2, 13, size=2))
    if kind == "equal":          # equal marginals: every north-west step is a tie
        m = n
        mu = nu = np.full(n, 1.0 / n)
        cost = rng.uniform(0.0, 3.0, size=(n, m))
    elif kind == "integer":      # integer masses and costs: ties everywhere
        mu = rng.integers(1, 4, size=n).astype(float)
        nu = rng.integers(1, 4, size=m).astype(float)
        mu, nu = mu / mu.sum(), nu / nu.sum()
        cost = rng.integers(0, 4, size=(n, m)).astype(float)
    else:
        mu, nu = rng.uniform(0.1, 1.0, size=n), rng.uniform(0.1, 1.0, size=m)
        if kind == "tiny":       # atoms down to 1e-14
            mu[rng.integers(n)] = 1e-14
            nu[rng.integers(m)] = 1e-14
        mu, nu = mu / mu.sum(), nu / nu.sum()
        cost = rng.uniform(0.0, 3.0, size=(n, m))
    return mu, nu, cost


def solve_alone(mu, nu, cost):
    """The transportation simplex on a batch of one."""
    return _transport_simplex(mu[None], nu[None], cost[None])[0]


def assert_matches_lp_solve(mu, nu, cost, plan):
    value = float((plan * cost).sum())
    reference = float((transport_lp(mu, nu, cost) * cost).sum())
    assert value == pytest.approx(reference, rel=1e-12, abs=1e-300)
    assert plan.min() >= 0.0
    assert np.abs(plan.sum(axis=1) - mu).max() <= MARGINAL_TOL
    assert np.abs(plan.sum(axis=0) - nu).max() <= MARGINAL_TOL


@pytest.mark.parametrize("kind", ["random", "equal", "integer", "tiny"])
@pytest.mark.parametrize("bland_after", [1, 0])
def test_transport_simplex_matches_lp_solve(monkeypatch, kind, bland_after):
    # runs of n + m degenerate pivots are rare, so 0 makes Bland's rule the only rule
    monkeypatch.setattr(discrete_ot, "_BLAND_AFTER", bland_after)
    rng = np.random.default_rng(53)
    for _ in range(40):
        mu, nu, cost = fuzz_transport_instance(rng, kind)
        assert_matches_lp_solve(mu, nu, cost, solve_alone(mu, nu, cost))


@pytest.mark.parametrize("kind", ["random", "equal", "integer", "tiny"])
@pytest.mark.parametrize("bland_after", [1, 0])
def test_batched_transport_simplex_matches_lp_solve(monkeypatch, kind, bland_after):
    # the same checks on batches of four problems of one shape, solved in lockstep
    monkeypatch.setattr(discrete_ot, "_BLAND_AFTER", bland_after)
    rng = np.random.default_rng(67)
    for _ in range(15):
        shape = tuple(int(k) for k in rng.integers(2, 13, size=2))
        batch = [fuzz_transport_instance(rng, kind, shape) for _ in range(4)]
        mu, nu, cost = (np.stack(arrays) for arrays in zip(*batch))
        plans = _transport_simplex(mu, nu, cost)
        for k in range(4):
            assert_matches_lp_solve(mu[k], nu[k], cost[k], plans[k])


def test_transport_simplex_repeats_bit_identical_plans():
    rng = np.random.default_rng(59)
    for kind in ("random", "equal", "integer", "tiny"):
        mu, nu, cost = fuzz_transport_instance(rng, kind)
        first = solve_alone(mu, nu, cost)
        for _ in range(3):
            assert solve_alone(mu.copy(), nu.copy(), cost.copy()).tobytes() == first.tobytes()
        copies = _transport_simplex(np.stack([mu] * 3), np.stack([nu] * 3), np.stack([cost] * 3))
        assert copies.tobytes() == np.stack([first] * 3).tobytes()


@pytest.mark.parametrize("bland_after", [1, 0])
def test_transport_simplex_plans_do_not_depend_on_the_batch(monkeypatch, bland_after):
    # a problem pivots on its own data only: mixed kinds in one batch, in
    # either order or cut in two, give each problem the plan it gets alone
    monkeypatch.setattr(discrete_ot, "_BLAND_AFTER", bland_after)
    rng = np.random.default_rng(71)
    for shape in ((3, 3), (5, 5), (4, 6), (6, 4), (10, 10), (2, 7)):
        kinds = ["random", "integer", "tiny"] + (["equal"] if shape[0] == shape[1] else [])
        batch = [fuzz_transport_instance(rng, kinds[k % len(kinds)], shape) for k in range(12)]
        mu, nu, cost = (np.stack(arrays) for arrays in zip(*batch))
        # costs of order 1e-6, 1 and 1e6: each tolerance scales with its own max|cost|
        cost *= 10.0 ** (6 * (np.arange(12) % 3) - 6)[:, None, None]
        plans = _transport_simplex(mu, nu, cost)
        backwards = _transport_simplex(mu[::-1], nu[::-1], cost[::-1])[::-1]
        head = _transport_simplex(mu[:5], nu[:5], cost[:5])
        for k in range(12):
            alone = solve_alone(mu[k], nu[k], cost[k])
            assert plans[k].tobytes() == alone.tobytes()
            assert backwards[k].tobytes() == alone.tobytes()
            if k < 5:
                assert head[k].tobytes() == alone.tobytes()


def test_transport_simplex_iteration_limit_raises_solver_error(monkeypatch):
    monkeypatch.setattr(discrete_ot, "_MAX_PIVOTS_PER_CELL", 0)
    rng = np.random.default_rng(73)
    mu, nu, cost = fuzz_transport_instance(rng, "random", (3, 4))
    with pytest.raises(SolverError, match="iteration limit"):
        solve_transport(mu, nu, cost)


def test_batched_2x2_matches_scalar_closed_form():
    rng = np.random.default_rng(61)
    mu = rng.uniform(0.1, 1.0, size=(40, 2))
    nu = rng.uniform(0.1, 1.0, size=(40, 2))
    mu, nu = mu / mu.sum(axis=1, keepdims=True), nu / nu.sum(axis=1, keepdims=True)
    nu[:10] = mu[:10]                                  # equal marginals
    cost = rng.uniform(0.0, 3.0, size=(40, 2, 2))
    cost[10:20, 1, 1] = cost[10:20, 0, 1] + cost[10:20, 1, 0] - cost[10:20, 0, 0]  # zero gap
    for scale in (1.0, 1e-20, 1e20):    # the tie threshold scales with the costs
        batched = _transport_2x2(mu, nu, scale * cost)
        for k in range(40):
            assert batched[k].tobytes() == closed_form_2x2(mu[k], nu[k], scale * cost[k]).tobytes()


def test_a_2x2_gap_counts_at_the_scale_of_its_costs():
    # a gap at or below an absolute 1e-14 was a tie, so every 2x2 problem
    # with costs far below one took the upper endpoint: here the diagonal,
    # of cost 1e-20, where the anti-diagonal costs 0
    for scale in (1e-20, 1.0, 1e20):
        value, plan = solve_transport([0.5, 0.5], [0.5, 0.5], [[scale, 0.0], [0.0, scale]])
        assert value == 0.0 and plan.tolist() == [[0.0, 0.5], [0.5, 0.0]]


def test_discrete_law_rejects_degenerate_masses():
    with pytest.raises(ValueError, match=r"degenerate atom mass below 1e-14$"):
        DiscreteLaw.from_arrays([[0.0], [1.0]], [1.0 - 1e-16, 1e-16])
    with pytest.raises(ValueError):
        DiscreteLaw.from_arrays([[0.0]], [0.9])
    with pytest.raises(ValueError, match="^points and masses differ in length$"):
        DiscreteLaw.from_arrays([[0.0], [1.0]], [1.0])
    with pytest.raises(ValueError, match="^empty law$"):
        DiscreteLaw.from_arrays([], [])
    # summed left to right on any interpreter: the builtin sum of Python 3.12 says 0.9
    with pytest.raises(ValueError, match=r"^masses sum to 0\.8999999999999999, expected 1$"):
        DiscreteLaw(points=((0.0,),) * 9, masses=(0.1,) * 9)


@pytest.mark.parametrize("masses", [[np.nan], [0.5, np.nan], [np.inf], [np.inf, 0.5]])
def test_discrete_law_rejects_non_finite_masses(masses):
    # a NaN mass compared false with "<" and ">", so the law was accepted and
    # w_distance against a unit atom returned 1.0 with plan ((1.0,),)
    with pytest.raises(ValueError, match=r"masses sum to (nan|inf), expected 1$"):
        DiscreteLaw.from_arrays([[float(k)] for k in range(len(masses))], masses)


def test_solve_transport_rejects_nan_masses():
    # it returned value nan and a plan full of NaN entries
    with pytest.raises(InfeasibleError, match=r"^marginal masses nan and nan do not balance$"):
        solve_transport([np.nan, 0.5], [0.3, np.nan, 0.2], np.ones((2, 3)))
    with pytest.raises(InfeasibleError, match=r"^marginal masses 0.9 and 1.0 do not balance$"):
        solve_transport([0.4, 0.5], [0.3, 0.5, 0.2], np.ones((2, 3)))


def test_solve_transport_rejects_a_negative_mass():
    # the masses balance, and it returned value 1.0 with the plan
    # [[0.5, 1.0], [0, 0]], whose row and column sums miss both marginals
    with pytest.raises(ValueError, match=r"^mass -0.5 is not >= 0$"):
        solve_transport([1.5, -0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match=r"^mass -0.25 is not >= 0$"):
        solve_transport([0.5, 0.5], [1.25, -0.25], [[0.0, 1.0], [1.0, 0.0]])
    value, plan = solve_transport([0.5, 0.5], [1.0, -0.0], [[0.0, 1.0], [1.0, 0.0]])
    assert value == 0.5 and plan.tolist() == [[0.5, 0.0], [0.5, 0.0]]


def test_solve_transport_rejects_an_empty_side():
    # a 0 x 0 problem failed inside numpy, in the 2x2 closed form; a side
    # with atoms against one with none does not balance
    with pytest.raises(ValueError, match=r"^a transport problem needs an atom on each side$"):
        solve_transport([], [], np.zeros((0, 0)))
    with pytest.raises(ValueError, match=r"^a transport problem needs an atom on each side$"):
        solve_transport([], [0.0], np.zeros((0, 1)))
    with pytest.raises(InfeasibleError, match=r"^marginal masses 1.0 and 0.0 do not balance$"):
        solve_transport([1.0], [], np.zeros((1, 0)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_cost_is_invalid_input(bad):
    # solve_transport and w_distance take raw costs, so an infinite one is a
    # ValueError, not the overflow that aw_distance reports for its costs
    cost = [[0.0, 1.0], [bad, 0.0]]
    with pytest.raises(ValueError, match=r"^cost entries must be finite$") as caught:
        solve_transport([0.5, 0.5], [0.5, 0.5], cost)
    assert type(caught.value) is ValueError
    law = DiscreteLaw.from_arrays([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"^cost entries must be finite$"):
        w_distance(law, law, cost)
    with pytest.raises(ValueError, match=r"^cost entries must be finite$"):
        solve_transport([1.0], [1.0], [[bad]])


def small_float_literals(source: str) -> list[tuple[int, float]]:
    """Line and value of every float literal with 0 < |x| < 1e-6 that is not
    part of a module-level assignment."""
    tree = ast.parse(source)
    named = {id(node) for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
             for node in ast.walk(stmt)}
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < abs(node.value) < 1e-6 and id(node) not in named]


def test_small_tolerances_are_named_constants():
    # every tolerance in the library is a module-level constant with a stated
    # reason; a bare small literal in an expression or a default is not
    src = Path(adawass.__file__).parent
    bare = {f"{path.name}:{line}": value for path in sorted(src.glob("*.py"))
            for line, value in small_float_literals(path.read_text(encoding="utf-8"))}
    assert bare == {}
