import math

import numpy as np
import pytest

from adawass import (
    ShapeMismatchError,
    TreeNode,
    TreeProcess,
    build_process,
    chain_process,
    path_distance,
    path_law,
    quantize_paths,
    tree_from_dict,
    tree_to_dict,
    validate,
)

from conftest import random_process


def test_validate_single_branch_tree():
    proc = chain_process([1.0, 2.0])
    assert validate(proc) == []


def test_validate_flags_probability_sum():
    proc = build_process([1], [(0.5, 0.0, []), (0.6, 1.0, [])])
    problems = validate(proc)
    assert len(problems) == 1
    assert "probability sum" in problems[0]


def test_validate_flags_short_leaf():
    # depth says 2, but one branch stops at level 1
    nodes = (
        TreeNode(id=0, parent=None, time=0, value=None, prob=1.0),
        TreeNode(id=1, parent=0, time=1, value=(0.0,), prob=0.5),
        TreeNode(id=2, parent=0, time=1, value=(1.0,), prob=0.5),
        TreeNode(id=3, parent=1, time=2, value=(2.0,), prob=1.0),
    )
    proc = TreeProcess(depth=2, value_dims=(1, 1), nodes=nodes)
    problems = validate(proc)
    assert any("leaf" in p for p in problems)


def test_validate_flags_nonpositive_probability():
    proc = build_process([1], [(1.0, 0.0, []), (0.0, 1.0, [])])
    assert any("non-positive" in p for p in validate(proc))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_validate_flags_non_finite_value(bad):
    proc = build_process([2], [(0.5, (0.0, bad), []), (0.5, (1.0, 1.0), [])])
    problems = validate(proc)
    assert len(problems) == 1
    assert "non-finite value" in problems[0]


@pytest.mark.parametrize("dims", [(0, 0), (-1,), (1, 0)])
def test_validate_flags_value_dims_below_one(dims):
    nodes = [TreeNode(id=0, parent=None, time=0, value=None, prob=1.0)]
    nodes += [TreeNode(id=t, parent=t - 1, time=t, value=(0.0,) * max(d, 0), prob=1.0)
              for t, d in enumerate(dims, start=1)]
    problems = validate(TreeProcess(depth=len(dims), value_dims=dims, nodes=tuple(nodes)))
    assert problems == [f"value_dims {list(dims)} has an entry below 1"]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_validate_flags_non_finite_probability(bad):
    proc = build_process([1], [(bad, 0.0, []), (1.0, 1.0, [])])
    assert any("non-finite edge probability" in p for p in validate(proc))


def test_path_distance_examples():
    assert path_distance([(1.0,), (2.0,)], [(3.0,), (5.0,)], 2.0) == pytest.approx(math.sqrt(13))
    assert path_distance([(1.0,), (2.0,)], [(1.0,), (2.0,)], 2.0) == 0.0
    assert path_distance([(0.0,), (0.0,)], [(1.0,), (1.0,)], 1.0) == pytest.approx(2.0)


def test_path_distance_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        path_distance([(1.0,)], [(1.0,), (2.0,)], 2.0)
    with pytest.raises(ShapeMismatchError):
        path_distance([(1.0, 2.0)], [(1.0,)], 2.0)


def test_path_distance_is_a_metric_on_fuzzed_paths():
    rng = np.random.default_rng(5)
    for _ in range(200):
        T = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 4)) for _ in range(T)]
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        x, y, z = (
            [tuple(rng.normal(size=d)) for d in dims] for _ in range(3)
        )
        dxy = path_distance(x, y, p)
        assert dxy >= 0.0
        assert dxy == pytest.approx(path_distance(y, x, p))
        assert path_distance(x, x, p) == 0.0
        assert dxy <= path_distance(x, z, p) + path_distance(z, y, p) + 1e-12


def test_path_law_deterministic_tree():
    law = path_law(chain_process([1.0, 2.0]))
    assert len(law.atoms) == 1
    path, mass = law.atoms[0]
    assert path == ((1.0,), (2.0,))
    assert mass == 1.0


def test_path_law_binary_one_step():
    proc = build_process([1], [(0.5, 0.0, []), (0.5, 1.0, [])])
    law = path_law(proc)
    assert sorted((p[0][0], m) for p, m in law.atoms) == [(0.0, 0.5), (1.0, 0.5)]


def test_path_law_two_level_product_rule():
    proc = build_process([1, 1], [
        (0.5, 0.0, [(0.5, 0.0, []), (0.5, 1.0, [])]),
        (0.5, 1.0, [(0.5, 0.0, []), (0.5, 1.0, [])]),
    ])
    law = path_law(proc)
    assert len(law.atoms) == 4
    assert all(m == pytest.approx(0.25) for _, m in law.atoms)
    assert law.total_mass == pytest.approx(1.0)


def test_path_law_masses_positive_and_normalized_on_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(50):
        proc = random_process(rng)
        law = path_law(proc)
        assert all(m > 0 for _, m in law.atoms)
        assert abs(law.total_mass - 1.0) <= 1e-12


def test_random_constructors_produce_valid_trees():
    rng = np.random.default_rng(17)
    for _ in range(100):
        assert validate(random_process(rng)) == []


def test_quantize_single_repeated_path_is_deterministic_tree():
    samples = [[(1.0,), (2.0,)]] * 10
    proc = quantize_paths(samples, [3, 3])
    assert validate(proc) == []
    law = path_law(proc)
    assert len(law.atoms) == 1
    assert law.atoms[0][0] == ((1.0,), (2.0,))


def test_quantize_two_paths_exact_fit():
    samples = [[(0.0,), (1.0,)]] * 3 + [[(5.0,), (6.0,)]] * 7
    proc = quantize_paths(samples, [2, 1])
    assert validate(proc) == []
    law = path_law(proc)
    atoms = sorted(((p, m) for p, m in law.atoms))
    assert atoms[0] == (((0.0,), (1.0,)), pytest.approx(0.3))
    assert atoms[1] == (((5.0,), (6.0,)), pytest.approx(0.7))


def test_quantize_iid_samples_against_assignment_oracle():
    rng = np.random.default_rng(23)
    samples = [[(float(v),)] for v in rng.normal(size=100)]
    proc = quantize_paths(samples, [2], seed=7)
    assert validate(proc) == []
    law = path_law(proc)
    assert len(law.atoms) == 2
    assert law.total_mass == pytest.approx(1.0, abs=1e-12)
    # oracle: recompute empirical masses from nearest-centroid assignment
    centroids = [p[0][0] for p, _ in law.atoms]
    counts = [0, 0]
    for (step,) in samples:
        d = [abs(step[0] - c) for c in centroids]
        counts[d.index(min(d))] += 1
    for (_, mass), count in zip(law.atoms, counts):
        assert mass == pytest.approx(count / 100)
    # determinism: same seed, same tree
    again = quantize_paths(samples, [2], seed=7)
    assert again == proc


def test_quantize_rejects_bad_input():
    with pytest.raises(ValueError):
        quantize_paths([], [2])
    with pytest.raises(ValueError):
        quantize_paths([[(1.0,)]], [0])
    with pytest.raises(ValueError, match="at least one value"):
        quantize_paths([[[], []], [[], []]], [2, 2])


def test_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        proc = random_process(rng)
        assert tree_from_dict(tree_to_dict(proc)) == proc


def test_tree_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        tree_from_dict({"depth": 1})
    # numbers of the wrong type: integer fields take ints only (no floats,
    # strings or bools), number fields take ints and floats only
    retyped = [("depth", 2.0), ("depth", True), ("value_dims", ["1", 1]), ("value_dims", [1.0, 1]),
               (1, "id", 1.7), (2, "parent", 1.2), (2, "parent", "1"), (1, "time", True),
               (1, "id", "1"), (2, "value", ["2.0"]), (2, "value", [True]), (1, "prob", "0.5"),
               (1, "prob", False)]
    for edit in retyped:
        doc = tree_to_dict(chain_process([0.0, 1.0]))
        if len(edit) == 2:
            doc[edit[0]] = edit[1]
        else:
            doc["nodes"][edit[0]][edit[1]] = edit[2]
        with pytest.raises(ValueError, match="expected an? (integer|number)"):
            tree_from_dict(doc)
    # ints are numbers too (read as floats), and numpy integers are integers
    doc = tree_to_dict(chain_process([0.0, 1.0]))
    doc["nodes"][1]["id"], doc["nodes"][2]["parent"] = np.int64(1), 1
    doc["nodes"][2]["value"], doc["nodes"][2]["prob"] = [2], 1
    proc = tree_from_dict(doc)
    assert proc.node(1).id == 1 and proc.node(2).value == (2.0,) and proc.node(2).prob == 1.0
    assert type(proc.node(2).prob) is float and type(proc.node(2).value[0]) is float
