import functools
import itertools
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adawass import (
    InfeasibleError,
    ShapeMismatchError,
    TreeNode,
    TreeProcess,
    aw_distance,
    build_process,
    canonicalize,
    chain_process,
    equivalent,
    information_process,
    bicausal,
    validate,
)
from adawass import canonical
from adawass.canonical import InfoState, _marginal_bound

from conftest import (
    FUZZ,
    canonicalize_by_nodes,
    epsilon_y,
    equivalent_by_nodes,
    information_process_by_nodes,
    law_by_nodes,
    marginal_bound_by_levels,
    random_process,
    relisted,
    small_trees,
    snapped_by_nodes,
)


def duplicated_branch_tree():
    return build_process([1, 1], [
        (0.5, 0.0, [(0.5, -1.0, []), (0.5, 1.0, [])]),
        (0.5, 0.0, [(0.5, -1.0, []), (0.5, 1.0, [])]),
    ])


# -- information process ------------------------------------------------------

def test_information_process_on_chain():
    proc = chain_process([1.0, 2.0])
    states = information_process(proc)
    leaf = proc.leaves[0]
    assert states[leaf] == InfoState(value=(2.0,))
    level1 = proc.level(1)[0]
    assert states[level1] == InfoState(value=(1.0,), law=((InfoState(value=(2.0,)), 1.0),))


def test_information_process_terminal_is_value():
    proc = build_process([1], [(0.5, 0.0, []), (0.5, 1.0, [])])
    states = information_process(proc)
    values = sorted(states[n].value[0] for n in proc.level(1))
    assert values == [0.0, 1.0]
    assert all(states[n].law is None for n in proc.level(1))


def structurally_equal(proc, a, b):
    """Independent recursive comparison of two subtrees (values, probs, order-free)."""
    na, nb = proc.node(a), proc.node(b)
    if na.value != nb.value:
        return False
    ka, kb = proc.children(a), proc.children(b)
    if len(ka) != len(kb):
        return False
    if not ka:
        return True
    for perm in itertools.permutations(kb):
        if all(
            proc.node(x).prob == proc.node(y).prob and structurally_equal(proc, x, y)
            for x, y in zip(ka, perm)
        ):
            return True
    return False


def test_identical_subtrees_get_identical_states():
    proc = duplicated_branch_tree()
    n1, n2 = proc.level(1)
    assert structurally_equal(proc, n1, n2)  # oracle agrees the subtrees match
    states = information_process(proc)
    assert states[n1] == states[n2]
    assert hash(states[n1]) == hash(states[n2])


def test_distinct_subtrees_get_distinct_states():
    proc = build_process([1, 1], [
        (0.5, 0.0, [(1.0, -1.0, [])]),
        (0.5, 0.0, [(1.0, 1.0, [])]),
    ])
    n1, n2 = proc.level(1)
    assert not structurally_equal(proc, n1, n2)
    states = information_process(proc)
    assert states[n1] != states[n2]


# -- canonicalize -------------------------------------------------------------

def test_canonicalize_merges_duplicated_branch():
    proc = duplicated_branch_tree()
    merged = canonicalize(proc)
    assert validate(merged) == []
    assert len(merged.level(1)) == 1
    assert merged.node(merged.level(1)[0]).prob == pytest.approx(1.0)
    assert len(merged.nodes) == 4


def test_canonicalize_idempotent_node_for_node():
    rng = np.random.default_rng(61)
    for _ in range(40):
        proc = random_process(rng)
        once = canonicalize(proc)
        assert canonicalize(once) == once


def test_canonicalize_planted_duplicate_against_pairwise_oracle():
    rng = np.random.default_rng(67)
    for _ in range(20):
        base = random_process(rng, depth=3, dims=(1, 1, 1), max_branch=2)
        states = information_process(base)
        # exhaustive pairwise oracle: count nodes that survive merging
        def surviving(node_id):
            kids = base.children(node_id)
            seen = []
            total = 0
            for c in kids:
                if any(states[c] == states[other] for other in seen):
                    continue
                seen.append(c)
                total += 1 + surviving(c)
            return total

        expected_nodes = 1 + surviving(base.root_id)
        merged = canonicalize(base)
        assert len(merged.nodes) == expected_nodes
        assert len(merged.nodes) <= len(base.nodes)


def test_canonicalize_plants_and_removes_duplicate_pair():
    sub = [(0.5, -1.0, []), (0.5, 1.0, [])]
    proc = build_process([1, 1], [
        (0.25, 0.0, sub),
        (0.25, 0.0, sub),
        (0.5, 2.0, [(1.0, 0.0, [])]),
    ])
    merged = canonicalize(proc)
    # the duplicated subtree (3 nodes) disappears
    assert len(proc.nodes) - len(merged.nodes) == 3
    assert aw_distance(proc, merged, 2.0)[0] <= 1e-9


def test_canonicalize_positive_tolerance_merges_near_duplicates():
    proc = build_process([1, 1], [
        (0.5, 0.0, [(1.0, 1.0, [])]),
        (0.5, 1e-7, [(1.0, 1.0 + 1e-7, [])]),
    ])
    assert len(canonicalize(proc, tol=0.0).nodes) == 5
    merged = canonicalize(proc, tol=1e-6)
    assert len(merged.nodes) == 3
    assert validate(merged) == []


def doubled(proc, nid):
    """Nested description of the subtree below ``nid`` with every child copied twice at half mass."""
    out = []
    for c in proc.children(nid):
        node = proc.node(c)
        out += [(node.prob / 2, node.value, doubled(proc, c))] * 2
    return out


def test_canonicalize_collapses_doubled_children_node_for_node():
    rng = np.random.default_rng(83)
    for _ in range(30):
        base = random_process(rng, depth=3)
        copy = build_process(list(base.value_dims), doubled(base, base.root_id))
        for tol in (0.0, 1e-9):
            assert canonicalize(copy, tol) == canonicalize(base, tol)
            assert equivalent(copy, base, tol)


def rebuild_by_nodes(depth, value_dims, law):
    """The tree whose level-1 information law is ``law``, node by node with
    ids in depth-first preorder: canonicalize's former builder."""
    nodes = [TreeNode(id=0, parent=None, time=0, value=None, prob=1.0)]

    def emit(parent_id, t, entries):
        for state, prob in entries:
            nid = len(nodes)
            nodes.append(TreeNode(id=nid, parent=parent_id, time=t, value=state.value, prob=prob))
            if state.law is not None:
                emit(nid, t + 1, state.law)

    emit(0, 1, law)
    return TreeProcess(depth=depth, value_dims=value_dims, nodes=tuple(nodes))


def redundant_random_tree(rng, jitter):
    """Random tree with values in {0, 1} (moved by up to ``jitter``) and
    probabilities from few weights, so that many siblings share a state."""
    depth = int(rng.integers(1, 4))
    dims = [int(rng.integers(1, 3)) for _ in range(depth)]

    def spawn(t):
        if t > depth:
            return []
        weights = rng.choice([1.0, 2.0, 3.0], size=int(rng.integers(1, 5)))
        shape = (len(weights), dims[t - 1])
        values = rng.integers(0, 2, shape) + jitter * rng.uniform(-1.0, 1.0, shape)
        return [(float(q), tuple(v), spawn(t + 1)) for q, v in zip(weights / weights.sum(), values.tolist())]

    return build_process(dims, spawn(1))


@pytest.mark.parametrize("tol, jitter", [(0.0, 0.0), (1e-6, 1e-7)])
def test_canonicalize_matches_the_node_by_node_rebuild(tol, jitter):
    rng = np.random.default_rng(31)
    merged = 0
    for _ in range(60):
        proc = redundant_random_tree(rng, jitter)
        snapped = snapped_by_nodes(proc, tol)
        ref = rebuild_by_nodes(proc.depth, proc.value_dims, law_by_nodes(snapped, snapped.root_id))
        got = canonicalize(proc, tol)
        assert (got.depth, got.value_dims) == (ref.depth, ref.value_dims)
        assert repr(got.nodes) == repr(ref.nodes)
        merged += len(got.nodes) < len(proc.nodes)
    assert merged > 30


def test_canonicalize_tolerant_chain_snaps_to_the_grid():
    # 6e-7 is within tol of both neighbours: the grid, not the listing, decides
    # that it joins 1.2e-6 at the grid point 1e-6 and not 0.0
    proc = build_process([1], [(0.25, 0.0, []), (0.25, 6e-7, []), (0.5, 1.2e-6, [])])
    merged = canonicalize(proc, tol=1e-6)
    kids = [merged.node(c) for c in merged.children(merged.root_id)]
    assert [(k.value, k.prob) for k in kids] == [((0.0,), 0.25), ((1e-6,), 0.75)]


def with_leaf_moved(proc, delta):
    """``proc`` with the value of its last listed leaf moved by ``delta``."""
    nodes = list(proc.nodes)
    k = max(i for i, n in enumerate(nodes) if n.time == proc.depth)
    nodes[k] = nodes[k]._replace(value=tuple(v + delta for v in nodes[k].value))
    return TreeProcess(proc.depth, proc.value_dims, nodes)


@pytest.mark.parametrize("order", ["depth-first", "breadth-first", "shuffled"])
@pytest.mark.parametrize("tol, jitter", [(0.0, 0.0), (1e-6, 1e-7)])
def test_canonical_forms_match_the_node_by_node_references(order, tol, jitter):
    # the states built a level at a time from the layout equal the former
    # depth-first build over children() and node(), whatever the node order
    rng = np.random.default_rng(37)
    verdicts = set()
    for _ in range(40):
        proc = relisted(redundant_random_tree(rng, jitter), order, rng)
        want = information_process_by_nodes(proc)
        assert {k: repr(v) for k, v in information_process(proc).items()} == {k: repr(v) for k, v in want.items()}
        got, ref = canonicalize(proc, tol), canonicalize_by_nodes(proc, tol)
        assert (got.depth, got.value_dims, repr(got.nodes)) == (ref.depth, ref.value_dims, repr(ref.nodes))
        for other in (relisted(ref, order, rng), with_leaf_moved(proc, 5e-7), with_leaf_moved(proc, 1.0)):
            verdict = equivalent(proc, other, tol)
            assert verdict == equivalent_by_nodes(proc, other, tol)
            verdicts.add(verdict)
    assert verdicts == {True, False}


# nine masses whose sorted left-to-right sum, 1.0319999999999998, is not
# numpy's pairwise sum (1.032)
NINE = [0.011, 0.016, 0.043, 0.113, 0.149, 0.165, 0.173, 0.174, 0.188]


def hard_shapes():
    """Trees whose states sort and merge in the ways most easily got wrong,
    by name; masses need not sum to one, since no form validates."""
    def fan(pairs):
        return [(q, v, []) for v, q in pairs]

    def chain(values, probs):
        branches = []
        for v, q in zip(reversed(values), reversed(probs)):
            branches = [(q, v, branches)]
        return branches[0]

    wide, twin = fan((float(i), 0.025) for i in range(40)), fan((float(i), 0.025) for i in range(40))
    twin[-1] = (0.025, 39.5, [])
    return {
        # equal values whose laws are prefixes of one another
        "prefix laws": build_process([1, 1], [
            (0.2, 0.0, fan([(1.0, 0.5), (2.0, 0.5)])),
            (0.2, 0.0, fan([(1.0, 0.5)])),
            (0.2, 0.0, fan([(1.0, 0.5), (2.0, 0.5), (3.0, 0.25)])),
            (0.2, 0.0, fan([(2.0, 0.5), (1.0, 0.5)])),
            (0.2, 0.0, fan([(1.0, 0.5), (2.0, 0.25)])),
        ]),
        # -0.0 == 0.0: all three level-1 states are one, written with the
        # first child's value
        "signed zeros": build_process([1, 1], [
            (0.25, -0.0, fan([(0.0, 1.0)])),
            (0.25, 0.0, fan([(-0.0, 1.0)])),
            (0.5, 0.0, fan([(0.0, 0.5), (-0.0, 0.5)])),
        ]),
        "2-d ties in the first component": build_process([2, 1], [
            (0.2, (0.0, 1.0), fan([(1.0, 1.0)])),
            (0.2, (0.0, -1.0), fan([(0.0, 1.0)])),
            (0.2, (0.0, 1.0), fan([(0.0, 1.0)])),
            (0.2, (1.0, -1.0), fan([(0.0, 1.0)])),
            (0.2, (0.0, -1.0), fan([(0.0, 1.0)])),
        ]),
        "nine equal siblings": build_process([1, 1], [
            (0.5, 0.0, fan([(1.0, q) for q in NINE[::-1]] + [(2.0, 0.05)])),
            (0.5, 0.0, fan([(2.0, 0.05)] + [(1.0, q) for q in NINE[4:] + NINE[:4]])),
        ]),
        # two equal wide nodes and one that differs at its last entry, among
        # narrow ones tied with them on the value
        "wide among narrow": build_process([1, 1], [
            (0.01, 0.0, wide), (0.01, 0.0, twin), (0.01, 0.0, list(wide)),
            *((0.01, 0.0, fan([(float(i % 5), 1.0)])) for i in range(60)),
        ]),
        # runs of one-child levels: chain i has the bits of i as its values
        # at levels 2, 4 and 5 and its masses at levels 2, 3 and 4, so
        # that every pair of chains differs somewhere; some are repeated
        "one-child runs": build_process([1] * 5, [
            chain([0.0, float(i & 1), 0.0, float(i >> 1 & 1), float(i >> 5 & 1)],
                  [0.0125, *(0.5 + 0.5 * (i >> b & 1) for b in (2, 3, 4)), 1.0])
            for i in (*range(64), 3, 6, 9, 12, 17, 30, 31, 63)
        ]),
        "one-child runs between fans": build_process([1] * 4, [
            (0.5, 0.0, [chain([0.0, float(i % 2), float(j)], [0.25, 1.0, 0.5]) for j in range(2)
                        for i in range(4)]),
            (0.5, 0.0, [chain([0.0, float(i % 2), float(j)], [0.25, 1.0, 0.5]) for i in range(4)
                        for j in range(2)]),
        ]),
    }


@pytest.mark.parametrize("order", ["depth-first", "shuffled"])
@pytest.mark.parametrize("name", list(hard_shapes()))
def test_canonical_forms_match_the_node_by_node_references_on_hard_shapes(name, order):
    rng = np.random.default_rng(41)
    proc = relisted(hard_shapes()[name], order, rng)
    want = information_process_by_nodes(proc)
    assert {k: repr(v) for k, v in information_process(proc).items()} == {k: repr(v) for k, v in want.items()}
    for tol in (0.0, 0.75):
        got, ref = canonicalize(proc, tol), canonicalize_by_nodes(proc, tol)
        assert (got.depth, got.value_dims, repr(got.nodes)) == (ref.depth, ref.value_dims, repr(ref.nodes))
    assert equivalent(proc, relisted(canonicalize(proc), "shuffled", rng))
    for other in hard_shapes().values():
        if other.value_dims == proc.value_dims:
            assert equivalent(proc, other) == equivalent_by_nodes(proc, other, 0.0)


def test_canonical_forms_of_hard_shapes_merge_as_stated():
    shapes = hard_shapes()
    assert repr(canonicalize(shapes["signed zeros"]).nodes[1:]) == repr((
        TreeNode(1, 0, 1, (-0.0,), 1.0), TreeNode(2, 1, 2, (0.0,), 1.0)))
    assert functools.reduce(operator.add, NINE, 0.0) != float(np.sum(NINE))
    nine = canonicalize(shapes["nine equal siblings"])
    assert [n.prob for n in nine.nodes if n.time == 2] == [1.0319999999999998, 0.05]
    # the two equal wide nodes merge, the twin differing at its 40th entry
    # sorts after them, and both sort before the narrow ones, whose first
    # entries carry more mass
    wide = canonicalize(shapes["wide among narrow"])
    assert [n.prob for n in wide.nodes if n.time == 1] == [0.02, 0.01] + [0.11999999999999998] * 5
    assert [len(wide.children(c)) for c in wide.children(wide.root_id)] == [40, 40, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_canonical_forms_reject_a_non_finite_value_as_validate_words_it(bad):
    # with children (1.0, NaN) the form followed the listing, a tree was not
    # equivalent to itself, and with a tolerance the cost check raised
    a = build_process([1, 1], [(0.5, 0.0, [(0.5, 1.0, []), (0.5, bad, [])]), (0.5, 1.0, [(1.0, bad, [])])])
    message = validate(a)[0]
    assert message == f"node 3 has non-finite value ({bad},)"
    for call in (lambda: canonicalize(a), lambda: canonicalize(a, tol=0.1), lambda: information_process(a),
                 lambda: equivalent(a, a), lambda: equivalent(a, a, tol=0.1)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    b = build_process([2], [(0.5, (0.0, 1.0), []), (0.5, (2.0, bad), [])])
    with pytest.raises(ValueError, match=rf"^node 2 has non-finite value \(2.0, {bad}\)$"):
        canonicalize(b)


def test_canonical_forms_reject_a_non_finite_edge_probability_as_validate_words_it():
    a = build_process([1], [(0.5, 0.0, []), (math.nan, 1.0, []), (0.5, math.inf, [])])
    assert validate(a)[0] == "node 2 has non-finite edge probability nan"
    with pytest.raises(ValueError, match=r"^node 2 has non-finite edge probability nan$"):
        canonicalize(a)
    with pytest.raises(ValueError, match=r"^node 2 has non-finite edge probability nan$"):
        information_process(a)


# -- a tolerance as an adapted distance ----------------------------------------

def test_equivalent_tolerance_matches_children_by_distance_not_by_rank():
    # near-equal level-1 values sort the children into a different order in
    # each tree; AW_1 = 1e-9 pairs each child with its near twin
    a = build_process([1, 1], [(0.5, 1.0, [(1.0, 0.0, [])]), (0.5, 1.0 + 1e-9, [(1.0, 5.0, [])])])
    b = build_process([1, 1], [(0.5, 1.0, [(1.0, 5.0, [])]), (0.5, 1.0 + 1e-9, [(1.0, 0.0, [])])])
    assert aw_distance(a, b, 1.0)[0] <= 1e-8
    assert not equivalent(a, b)
    assert equivalent(a, b, tol=1e-6)


def test_equivalent_tolerance_bounds_the_distance_not_each_mass():
    # every mass differs by just 0.02, but half the mass moves by 100: AW_1 = 50
    low, high = [0.05 * i for i in range(25)], [100.0 + 0.05 * i for i in range(25)]
    x = build_process([1], [(0.03, v, []) for v in low] + [(0.01, v, []) for v in high])
    y = build_process([1], [(0.01, v, []) for v in low] + [(0.03, v, []) for v in high])
    assert aw_distance(x, y, 1.0)[0] == pytest.approx(50.0)
    assert not equivalent(x, y, tol=0.02)
    assert equivalent(x, y, tol=50.0 + 1e-6)


def test_tolerant_canonical_form_of_a_fan_does_not_depend_on_its_listing():
    fan = [(0.1, 0.009 * i, []) for i in range(10)]
    forward, backward = build_process([1], fan), build_process([1], fan[::-1])
    merged = canonicalize(forward, tol=0.01)
    assert repr(canonicalize(backward, tol=0.01).nodes) == repr(merged.nodes)
    assert len(merged.leaves) == 9
    assert aw_distance(forward, merged, 1.0)[0] == pytest.approx(0.0025)


@pytest.fixture
def solves(monkeypatch):
    """The pairs that ``equivalent`` hands to ``bicausal.aw_distance``, which
    still runs."""
    calls, solve = [], bicausal.aw_distance

    def spy(x, y, p):
        calls.append((x, y))
        return solve(x, y, p)

    monkeypatch.setattr(bicausal, "aw_distance", spy)
    return calls


@pytest.fixture
def canonicalizes(monkeypatch):
    """The trees that ``equivalent`` hands to ``canonical.canonicalize``,
    which still runs."""
    calls, form = [], canonical.canonicalize

    def spy(proc, tol=0.0):
        calls.append(proc)
        return form(proc, tol)

    monkeypatch.setattr(canonical, "canonicalize", spy)
    return calls


def test_equivalent_tolerance_on_values_whose_costs_overflow(solves):
    # AW_1 is 2e308, past the largest float, so above any finite tol; the
    # marginal bound reads infinity (its slack does not) and decides alone
    a, b = chain_process([1e308]), chain_process([-1e308])
    with pytest.raises(OverflowError):
        aw_distance(a, b, 1.0)
    assert not equivalent(a, b, tol=1.0)
    assert canonicalize(a, tol=1.0) == a
    bound, slack = _marginal_bound(a, b)
    assert bound == math.inf and math.isfinite(slack)
    assert solves == []
    # each level's W_1 is 1e308, finite, and their sum is past the largest float
    a, b = chain_process([1e308, 1e308]), chain_process([0.0, 0.0])
    bound, slack = _marginal_bound(a, b)
    assert bound == math.inf and math.isfinite(slack)
    assert not equivalent(a, b, tol=1.0)
    assert solves == []


@pytest.mark.parametrize("order", ["depth-first", "shuffled"])
def test_equivalent_tolerance_on_equal_forms_whose_bound_overflows(order, solves):
    # the CDF at -1e308 cancels only up to rounding (a residue of about
    # 2.8e-17), and that times the infinite gap to 1e308 makes L infinite
    # with a finite slack; the equal canonical forms decide, with no solve
    a = build_process([1], [(0.1, -1e308, []), (0.2, -1e308, []), (0.7, 1e308, [])])
    b = relisted(a, order, np.random.default_rng(0))
    bound, slack = _marginal_bound(a, b)
    assert bound == math.inf and math.isfinite(slack)
    assert equivalent(a, b, tol=1.0)
    assert equivalent(a, b, tol=0.0)
    assert solves == []


@pytest.mark.parametrize("dims, x, y, error", [
    ([1], [(0.6, 0.0, [])], [(1.0, 5.0, [])], InfeasibleError),
    ([1], [(1.5, 0.0, []), (-0.5, 3.0, [])], [(1.0, 5.0, [])], ValueError),
    # the level totals balance, so no check of level masses sees it
    ([1, 1], [(0.5, 0.0, [(0.6, 1.0, [])]), (0.5, 1.0, [(1.4, 2.0, [])])],
     [(0.5, 0.0, [(1.0, 5.0, [])]), (0.5, 1.0, [(1.0, 6.0, [])])], InfeasibleError),
], ids=["short mass", "negative mass", "children off one"])
def test_equivalent_keeps_the_solves_errors_on_trees_that_are_not_probability_trees(dims, x, y, error):
    # the marginal bound alone would say "not equivalent"; it decides only on
    # trees whose edge probabilities are >= 0 and sum to one as validate has it
    a, b = build_process(dims, x), build_process(dims, y)
    assert marginal_bound_by_levels(a, b) > 0.2
    message = {InfeasibleError: "marginal masses 0.6 and 1.0 do not balance", ValueError: "mass -0.5 is not >= 0"}
    with pytest.raises(error, match=f"^{message[error]}$"):
        equivalent(a, b, tol=0.1)


def test_equivalent_solves_when_the_marginals_agree_but_the_information_differs(solves):
    # x reveals the time-2 sign at time 1, y does not: equal marginals, L = 0, AW_1 = 1
    x = build_process([1, 1], [(0.5, 0.0, [(1.0, 1.0, [])]), (0.5, 0.0, [(1.0, -1.0, [])])])
    y = build_process([1, 1], [(1.0, 0.0, [(0.5, 1.0, []), (0.5, -1.0, [])])])
    assert _marginal_bound(x, y)[0] == 0.0
    assert aw_distance(x, y, 1.0)[0] == 1.0
    assert not equivalent(x, y, tol=0.5)
    assert equivalent(x, y, tol=1.5)
    assert len(solves) == 2


def test_equivalent_decides_a_shifted_leaf_by_the_marginal_bound(solves, canonicalizes):
    rng = np.random.default_rng(5)
    x = random_process(rng, depth=3, dims=(1, 2, 1))
    last = x.leaves[-1]
    y = TreeProcess(x.depth, x.value_dims, [n._replace(value=(n.value[0] + 0.5,)) if n.id == last else n
                                             for n in x.nodes])
    tol = aw_distance(x, y, 1.0)[0] / 2.0
    assert not equivalent(x, y, tol) and not equivalent(y, x, tol)
    assert solves == []
    assert canonicalizes == []
    assert equivalent(x, y, 2.0 * tol)
    assert len(solves) == 1


def test_equivalent_of_deep_chains_that_differ_needs_no_solve(solves, canonicalizes):
    # the bound reads AW_1 = 0.5 * 1.0 from the last level's marginals
    a, b = two_chain_tree(5000, 5000.0), two_chain_tree(5000, 5001.0)
    assert _marginal_bound(a, b)[0] == 0.5
    assert not equivalent(a, b, 1e-9)
    assert solves == []
    assert canonicalizes == []


_LEAF_EARLY = "node 1 at level 1 is a leaf, expected depth 2"
_NON_FINITE = "node 1 has non-finite value (nan,)"
_TWO_ROOTS = "expected exactly one root, found 2"


@pytest.mark.parametrize("tol", [0.0, 0.1])
@pytest.mark.parametrize("first, second, message", [
    ("leaf early", "non-finite", _LEAF_EARLY),
    ("non-finite", "leaf early", _NON_FINITE),
    ("valid", "leaf early", _LEAF_EARLY),
    ("valid", "non-finite", _NON_FINITE),
    ("two roots", "non-finite", _TWO_ROOTS),
    ("valid", "two roots", _TWO_ROOTS),
    ("negative mass", "non-finite", _NON_FINITE),
])
def test_equivalent_checks_each_tree_in_canonicalizes_order(first, second, message, tol):
    # the marginal bound runs before the canonical forms; each tree's finite
    # values and then its layout are checked first, a's before b's, so the
    # error is the one that canonicalize(a), then canonicalize(b), raises
    valid = build_process([1, 1], [(1.0, 0.0, [(1.0, 3.0, [])])])
    trees = {
        "valid": valid,
        "leaf early": build_process([1, 1], [(0.5, 0.0, []), (0.5, 1.0, [(1.0, 2.0, [])])]),
        "non-finite": build_process([1, 1], [(1.0, math.nan, [(1.0, 0.0, [])])]),
        "two roots": TreeProcess(2, (1, 1), list(valid.nodes) + [valid.nodes[0]._replace(id=9)]),
        "negative mass": build_process([1, 1], [(1.5, 0.0, [(1.0, 0.0, [])]), (-0.5, 9.0, [(1.0, 0.0, [])])]),
    }
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        equivalent(trees[first], trees[second], tol)


def test_equivalent_keeps_the_verdict_on_trees_that_sum_to_one_only_within_prob_tol():
    # each step has probability 1 + 0.9e-12 in x and 1 - 0.9e-12 in y, inside
    # validate's PROB_TOL, so the chains' masses drift apart level by level
    # and the bound reads 4e-6 where both trees take the values 0 and 1 alike
    def drifting(steps, q):
        first = second = []
        for t in range(steps, 0, -1):
            first, second = [(0.5 if t == 1 else q, 0.0, first)], [(0.5 if t == 1 else q, 1.0, second)]
        return build_process([1] * steps, first + second)

    x, y = drifting(3000, 1.0 + 0.9e-12), drifting(3000, 1.0 - 0.9e-12)
    assert validate(x) == validate(y) == []
    assert _marginal_bound(x, y)[0] > 4e-6
    assert aw_distance(canonicalize(x), canonicalize(y), 1.0)[0] == 0.0
    assert equivalent(x, y, tol=1e-6)


def test_equivalent_defers_a_marginal_bound_that_reads_nan(solves):
    # level 1 agrees across a gap of 2e308, which overflows: 0 * inf is NaN
    # there, so the solve decides, and its costs overflow; level 2 differs
    x = build_process([1, 1], [(0.5, -1e308, [(1.0, 0.0, [])]), (0.5, 1e308, [(1.0, 0.0, [])])])
    y = build_process([1, 1], [(0.5, -1e308, [(1.0, 1.0, [])]), (0.5, 1e308, [(1.0, 1.0, [])])])
    assert math.isnan(_marginal_bound(x, y)[0])
    assert not equivalent(x, y, tol=0.5)
    assert len(solves) == 1


def test_aw_1_is_not_the_smallest_order_and_the_verdict_reads_aw_1():
    # two chains one apart at both steps: AW_p = 2**(1/p) falls with p, so
    # AW_1 = 2 is the largest, and AW_1 <= T**(1 - 1/p) * AW_p holds with
    # equality; equivalent(x, y, tol) stays AW_1 <= tol
    x, y = chain_process([0.0, 0.0]), chain_process([1.0, 1.0])
    values = {p: aw_distance(x, y, p)[0] for p in (1.0, 1.5, 2.0, 4.0)}
    assert values[1.0] == 2.0
    assert values[1.5] == pytest.approx(1.5874010519681994, rel=1e-15)
    assert values[2.0] == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert values[4.0] == pytest.approx(1.189207115002721, rel=1e-15)
    for p, value in values.items():
        assert values[1.0] == pytest.approx(2.0 ** (1.0 - 1.0 / p) * value, rel=1e-15)
    assert values[2.0] <= 1.5
    assert not equivalent(x, y, 1.5)
    assert equivalent(x, y, 2.0)


@pytest.mark.parametrize("tol", [5e-324, 1e-310, 1e308])
def test_canonicalize_keeps_values_whose_grid_point_floats_cannot_hold(tol):
    # a subnormal mesh overflows value / tol, and a huge one overflows
    # k * tol; the values stay finite and within tol / 2 of the input
    values = [-1.7e308, -1.0, -1e-320, 0.0, 3e-310, 2.5, 1.7e308]
    got = np.array([n.value[0] for n in canonicalize(chain_process(values), tol).nodes[1:]])
    assert np.isfinite(got).all()
    assert (np.abs(got - values) <= tol / 2).all()


def test_canonicalize_writes_a_value_snapped_to_zero_as_positive_zero():
    proc = build_process([1], [(0.5, -0.3, []), (0.5, -0.0, [])])
    merged = canonicalize(proc, tol=1.0)
    assert repr([n.value for n in merged.nodes]) == repr([None, (0.0,)])
    assert math.copysign(1.0, merged.nodes[1].value[0]) == 1.0


# relative slack on the bound for the rounding of the AW computation itself
AW_ROUNDING = 1e-9


@FUZZ
@given(proc=small_trees(), tol=st.floats(1e-3, 4.0), p=st.sampled_from([1.0, 2.0, 3.0]),
       seed=st.integers(0, 2**32 - 1))
def test_tolerant_canonical_form_is_within_its_bound_of_the_tree(proc, tol, p, seed):
    merged = canonicalize(proc, tol)
    bound = proc.depth ** (1 / p) * math.sqrt(max(proc.value_dims)) * tol / 2
    assert aw_distance(proc, merged, p)[0] <= bound * (1 + AW_ROUNDING)
    again = canonicalize(relisted(proc, "shuffled", np.random.default_rng(seed)), tol)
    assert repr(again.nodes) == repr(merged.nodes)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
def test_canonical_forms_reject_a_tolerance_that_is_not_finite_and_non_negative(tol):
    # a NaN or infinite tolerance merges siblings of any values: the 2-node
    # "canonical form" of this tree is at AW distance 3.54 from it
    proc = build_process([1], [(0.5, 0.0, []), (0.5, 5.0, [])])
    with pytest.raises(ValueError, match="finite tolerance >= 0"):
        canonicalize(proc, tol=tol)
    with pytest.raises(ValueError, match="finite tolerance >= 0"):
        equivalent(proc, proc, tol=tol)


def test_canonical_forms_of_int_valued_trees_carry_equal_floats():
    # states read the values from the float layout, so a library tree built
    # with int values gets the equal float values in its canonical form
    proc = build_process([2], [(0.5, (1, 2), []), (0.5, (1, 2), [])])
    merged = canonicalize(proc)
    assert repr([n.value for n in merged.nodes]) == repr([None, (1.0, 2.0)])
    assert merged == build_process([2], [(1.0, (1, 2), [])])


# -- equivalent ---------------------------------------------------------------

def test_equivalent_reflexive():
    proc = duplicated_branch_tree()
    assert equivalent(proc, proc)


def test_equivalent_tree_and_merged_form():
    proc = duplicated_branch_tree()
    assert equivalent(proc, canonicalize(proc))


def test_equivalent_distinguishes_epsilon_mirrors():
    a, b = epsilon_y(0.1), epsilon_y(0.2)
    assert not equivalent(a, b)
    dist, _ = aw_distance(a, b, 1.0)
    assert dist > 0.01  # the solver confirms a genuine gap


def test_equivalent_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        equivalent(chain_process([1.0]), chain_process([1.0, 2.0]))


def test_equivalent_is_an_equivalence_relation_on_fixed_set():
    rng = np.random.default_rng(71)
    pool = [random_process(rng, depth=2, dims=(1, 1), max_branch=2) for _ in range(6)]
    pool += [canonicalize(p) for p in pool[:3]]
    pool.append(duplicated_branch_tree())
    pool.append(canonicalize(duplicated_branch_tree()))
    rel = {}
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            rel[i, j] = equivalent(a, b)
    n = len(pool)
    for i in range(n):
        assert rel[i, i]
        for j in range(n):
            assert rel[i, j] == rel[j, i]
            for k in range(n):
                if rel[i, j] and rel[j, k]:
                    assert rel[i, k]


def test_equivalence_classes_are_well_defined_for_distances():
    rng = np.random.default_rng(73)
    for _ in range(8):
        a = random_process(rng, depth=2, dims=(1, 1), max_branch=2)
        b = canonicalize(a)
        assert equivalent(a, b)
        c = random_process(rng, depth=2, dims=(1, 1), max_branch=2)
        for p in (1.0, 2.0):
            dac, _ = aw_distance(a, c, p)
            dbc, _ = aw_distance(b, c, p)
            assert abs(dac - dbc) <= 1e-9


def test_equivalent_positive_tolerance():
    a = build_process([1], [(0.5, 0.0, []), (0.5, 1.0, [])])
    b = build_process([1], [(0.5, 1e-8, []), (0.5, 1.0 - 1e-8, [])])
    assert not equivalent(a, b, tol=0.0)
    assert equivalent(a, b, tol=1e-6)


def test_aw_distance_to_canonical_form_is_zero():
    rng = np.random.default_rng(79)
    for _ in range(15):
        proc = random_process(rng, depth=2, dims=(1,) * 2, max_branch=2)
        merged = canonicalize(proc)
        for p in (1.0, 2.0):
            assert aw_distance(proc, merged, p)[0] <= 1e-9


def two_chain_tree(steps, last):
    """A root with two ``steps``-step chains of values 1..steps below it, the
    second one ending at ``last``; built without recursion."""
    first = second = []
    for t in range(steps, 0, -1):
        first = [(0.5 if t == 1 else 1.0, float(t), first)]
        second = [(0.5 if t == 1 else 1.0, last if t == steps else float(t), second)]
    return build_process([1] * steps, first + second)


def test_canonical_forms_of_trees_2001_levels_deep():
    # past Python's recursion limit: states are built, merged, compared
    # and written out level by level
    same, differ = two_chain_tree(2001, 2001.0), two_chain_tree(2001, 2002.0)
    assert same.depth == 2001 and len(same.nodes) == len(differ.nodes) == 4003
    assert len(canonicalize(same).nodes) == 2002
    assert len(canonicalize(differ).nodes) == 4003
    # on the grid of mesh 2.0 the last values 2001 and 2002 stay apart (2001
    # rounds half to even to 2000), so the tolerant form merges nothing
    assert len(canonicalize(differ, tol=2.0).nodes) == 4003
    assert equivalent(same, canonicalize(same))
    assert not equivalent(same, differ)
    assert equivalent(same, differ, tol=2.0)
