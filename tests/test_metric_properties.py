"""The adapted Wasserstein distance as a metric, property by property.

AW_p is a metric on filtered processes up to equivalence (Bartl, Beiglboeck
and Pammer, arXiv 2104.14245): symmetric, with the triangle inequality,
blind to how a tree is listed, zero on equivalent trees, and above the
classical distance of the path laws, since bicausal couplings are couplings.
Every property runs over small random trees that hypothesis draws, with the
settings of every property test in the suite (``conftest.FUZZ``).
"""

import itertools

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from adawass import TreeNode, TreeProcess, aw_distance, canonicalize, path_distance, path_law
from adawass.canonical import _marginal_bound

from conftest import FUZZ, marginal_bound_by_levels, relisted, small_trees, w_of_path_laws

ORDERS = st.sampled_from([1.0, 1.5, 2.0, 3.0])
# Relative slack between two computations of one distance: each sums a few
# dozen path costs times masses, with rounding near 1e-16 per term.
SAME_VALUE = 1e-12
# Bound on AW_p(x, y)**p over the largest path cost, for trees x and y of
# one information law: the residue of rounding in sums of a few dozen costs
# times masses, near 1e-16 each; every draw below reads exactly 0.  The p-th
# root would turn such a residue into about its square root, so the bound
# is on the p-th power.  It is tighter than the transportation simplex's
# stopping rule, which allows a nodewise value up to 1e-12 of its problem's
# largest cost above the optimum; draws outside the suite's have hit that.
EQUIVALENT_FLOOR = 1e-14


@st.composite
def same_shape_trees(draw, count):
    """``count`` small trees of one depth and value dims."""
    depth = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 2), min_size=depth, max_size=depth))
    return [draw(small_trees(dims)) for _ in range(count)]


# value dims of one, two and mixed components per step
DIMS = st.sampled_from([(1,), (1, 1), (1, 1, 1), (2,), (2, 2), (2, 2, 2), (1, 2), (2, 1), (2, 1, 2)])


def with_redundant_copy(proc, position, share):
    """``proc`` with the subtree of its non-root node at ``position`` in the
    node list listed twice under fresh ids, the two copies splitting the
    node's edge probability as ``share`` to ``1 - share``: an equivalent tree."""
    nodes = list(proc.nodes)
    first = nodes[1:][position % (len(nodes) - 1)]
    fresh = itertools.count(max(n.id for n in nodes) + 1)
    copies, stack = [], [(first.id, first.parent)]
    while stack:
        nid, parent = stack.pop()
        node = proc.node(nid)
        copies.append(TreeNode(new := next(fresh), parent, node.time, node.value,
                               node.prob * (1.0 - share) if nid == first.id else node.prob))
        stack.extend((child, new) for child in proc.children(nid))
    nodes = [n._replace(prob=n.prob * share) if n.id == first.id else n for n in nodes]
    return TreeProcess(proc.depth, proc.value_dims, nodes + copies)


def largest_path_cost(x, y, p):
    """The largest cost sum_t |x_t - y_t|_2**p over pairs of paths."""
    return max(path_distance(u, v, p) ** p for u, _ in path_law(x).atoms for v, _ in path_law(y).atoms)


@FUZZ
@given(trees=same_shape_trees(2), p=ORDERS)
def test_aw_is_symmetric(trees, p):
    x, y = trees
    forward, backward = aw_distance(x, y, p)[0], aw_distance(y, x, p)[0]
    assert abs(forward - backward) <= SAME_VALUE * max(forward, backward)


@FUZZ
@given(trees=same_shape_trees(3), p=ORDERS)
def test_aw_satisfies_the_triangle_inequality(trees, p):
    x, y, z = trees
    direct = aw_distance(x, z, p)[0]
    assert direct <= (aw_distance(x, y, p)[0] + aw_distance(y, z, p)[0]) * (1.0 + SAME_VALUE)


@FUZZ
@given(trees=same_shape_trees(2), p=ORDERS, position=st.integers(0, 100), share=st.sampled_from([0.5, 0.25]),
       seed=st.integers(0, 2**32 - 1))
def test_aw_is_invariant_under_redundant_copies_relisting_and_relabelling(trees, p, position, share, seed):
    x, y = trees
    value = aw_distance(x, y, p)[0]
    rng = np.random.default_rng(seed)
    variants = [with_redundant_copy(x, position, share)] + [
        relisted(x, order, rng) for order in ("breadth-first", "relabelled", "shuffled")]
    for other in variants:
        again = aw_distance(other, y, p)[0]
        assert abs(again - value) <= SAME_VALUE * value
        assert abs(aw_distance(y, other, p)[0] - value) <= SAME_VALUE * value


@FUZZ
@given(proc=small_trees(), p=ORDERS, position=st.integers(0, 100), share=st.sampled_from([0.5, 0.25]),
       seed=st.integers(0, 2**32 - 1))
def test_aw_is_zero_on_equivalent_trees(proc, p, position, share, seed):
    rng = np.random.default_rng(seed)
    for other in (proc, with_redundant_copy(proc, position, share), canonicalize(proc),
                  relisted(proc, "shuffled", rng)):
        assert aw_distance(proc, other, p)[0] ** p <= EQUIVALENT_FLOOR * largest_path_cost(proc, other, p)


@FUZZ
@given(trees=same_shape_trees(2), p=ORDERS)
def test_aw_1_is_at_most_t_to_the_1_minus_1_over_p_times_aw_p(trees, p):
    # Hoelder's inequality over the T steps of each path pair under an
    # optimal p-plan, then Jensen's inequality over the plan
    x, y = trees
    bound = x.depth ** (1.0 - 1.0 / p) * aw_distance(x, y, p)[0]
    assert aw_distance(x, y, 1.0)[0] <= bound * (1.0 + SAME_VALUE)


@FUZZ
@given(trees=same_shape_trees(2), p=ORDERS)
def test_the_classical_distance_of_the_path_laws_is_at_most_aw(trees, p):
    x, y = trees
    adapted, classical = aw_distance(x, y, p)[0], w_of_path_laws(x, y, p)
    assert classical <= adapted * (1.0 + SAME_VALUE)
    if x.depth == 1:     # one step reveals everything: every coupling is bicausal
        assert abs(classical - adapted) <= SAME_VALUE * adapted


@FUZZ
@given(dims=DIMS, data=st.data())
def test_the_marginal_bound_is_at_most_aw_1_and_matches_its_level_by_level_reference(dims, data):
    # a bicausal coupling couples each level's marginals, so AW_1 is at least
    # the sum over levels of the 2-norm of the components' W_1
    x, y = data.draw(small_trees(dims)), data.draw(small_trees(dims))
    bound, slack = _marginal_bound(x, y)
    reference = marginal_bound_by_levels(x, y)
    assert abs(bound - reference) <= 1e-15 * reference
    assert bound <= aw_distance(x, y, 1.0)[0] + slack
    assert bound <= aw_distance(canonicalize(x), canonicalize(y), 1.0)[0] + slack


@FUZZ
@given(dims=DIMS, data=st.data(), position=st.integers(0, 100), share=st.sampled_from([0.5, 0.25]),
       seed=st.integers(0, 2**32 - 1))
def test_the_marginal_bound_of_an_equivalent_copy_is_within_its_slack(dims, data, position, share, seed):
    proc = data.draw(small_trees(dims))
    rng = np.random.default_rng(seed)
    for other in (with_redundant_copy(proc, position, share), relisted(proc, "shuffled", rng),
                  relisted(proc, "relabelled", rng)):
        bound, slack = _marginal_bound(proc, other)
        assert bound <= slack
        assert abs(bound - marginal_bound_by_levels(proc, other)) <= 1e-15 * bound
