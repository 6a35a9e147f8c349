import ast
import functools
import math
import operator
import re
from pathlib import Path

import numpy as np
import pytest

import adawass
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

from adawass.cli import _tree_json

from adawass.trees import _segment_sums

from conftest import (assert_same_layout, build_process_by_nodes, layout_by_nodes, random_process, total_mass,
                      validate_by_nodes)


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


def test_validate_reports_every_per_node_violation_in_order():
    # one tree carrying each per-node violation: the whole report, in order
    nodes = (
        TreeNode(id=0, parent=None, time=0, value=None, prob=1.0),
        TreeNode(id=1, parent=0, time=1, value=(0.0,), prob=0.5),
        TreeNode(id=2, parent=0, time=1, value=(1.0,), prob=math.nan),   # and an early leaf
        TreeNode(id=3, parent=0, time=1, value=(2.0,), prob=-0.25),      # and an early leaf
        TreeNode(id=4, parent=1, time=2, value=(0.0, 1.0), prob=0.5),
        TreeNode(id=5, parent=1, time=2, value=(math.inf,), prob=0.25),  # node 1's sum 0.75
        TreeNode(id=6, parent=99, time=2, value=(0.0,), prob=1.0),
        TreeNode(id=7, parent=4, time=2, value=(0.0,), prob=1.0),
        TreeNode(id=8, parent=7, time=3, value=(0.0,), prob=1.0),
    )
    assert validate(TreeProcess(depth=2, value_dims=(1, 1), nodes=nodes)) == [
        "node 2 has non-finite edge probability nan",
        "node 3 has non-positive edge probability -0.25",
        "node 4 value has dim 2, expected 1",
        "node 5 has non-finite value (inf,)",
        "node 6 has unknown parent 99",
        "node 7 at level 2 under parent at level 2",
        "node 8 at level 3 outside 1..2",
        "children of node 1 have probability sum 0.75",
        "node 2 at level 1 is a leaf, expected depth 2",
        "node 3 at level 1 is a leaf, expected depth 2",
        "node 4 at terminal level has children",
        "node 7 at terminal level has children",
    ]


def test_validate_builds_no_node_views():
    # validate words its messages from the columns, so a loaded tree keeps
    # no node view even when it is invalid
    doc = tree_to_dict(chain_process([1.0, 2.0]))
    doc["nodes"][1]["prob"] = -0.5
    proc = tree_from_dict(doc)
    assert validate(proc) == ["node 1 has non-positive edge probability -0.5",
                              "children of node 0 have probability sum -0.5"]
    assert not NODE_VIEWS & vars(proc).keys()


@pytest.mark.parametrize("dims, branches, message", [
    ([1], [], "node 0 at level 0 is a leaf, expected depth 1"),
    ([], [], "depth 0 < 1"),
    ([1, 1], [(0.5, 0.0, [(1.0, 0.0, [])]), (0.5, 1.0, [])], "node 3 at level 1 is a leaf, expected depth 2"),
], ids=["dims0-node 0 at level 0 is a leaf, expected depth 1", "dims1-depth 0 < 1", "leaf above level T"])
def test_a_childless_root_fails_with_the_first_validate_message(dims, branches, message):
    # the layout of a tree with an empty level used to fail inside numpy
    # ("cannot reshape array of size 0"), and a depth-0 tree further on; a
    # leaf above level T got a layout, so aw_distance failed to balance its
    # masses and canonicalize returned a form of the invalid tree
    assert validate(build_process(dims, branches))[0] == message
    runs = (adawass.canonicalize, adawass.information_process, lambda proc: adawass.aw_distance(proc, proc, 2.0),
            lambda proc: adawass.equivalent(proc, proc))
    for run in runs:
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(build_process(dims, branches))


@pytest.mark.parametrize("edit, message", [
    ({"time": 1}, "root node 0 is at level 1, expected 0"),
    ({"value": (0.0,)}, "root node 0 carries a value"),
], ids=["root off level 0", "root with a value"])
def test_validate_flags_a_malformed_root(edit, message):
    proc = build_process([1], [(0.5, 0.0, []), (0.5, 1.0, [])])
    nodes = [n._replace(**edit) if n.parent is None else n for n in proc.nodes]
    assert validate(TreeProcess(1, (1,), nodes))[0] == message


@pytest.mark.parametrize("values, message", [
    ([[[0.0], [1.0]], [[2.0]]], "2 value levels for a tree of depth 1"),
    ([[[0.0]]], r"level 1 values have shape \(1, 1\), expected one row per each of its 2 nodes"),
    ([[0.0, 1.0]], r"level 1 values have shape \(2,\), expected one row per each of its 2 nodes"),
], ids=["too many levels", "too few rows", "rows of no dimension"])
def test_process_with_values_rejects_values_that_miss_the_layout(values, message):
    proc = build_process([1], [(0.5, 0.0, []), (0.5, 1.0, [])])
    with pytest.raises(ValueError, match=f"^{message}$"):
        adawass.process_with_values(proc, values)


# nine probabilities whose left-to-right sum, 1.0319999999999998, is neither
# numpy's pairwise sum nor the correctly rounded one (both 1.032)
NINE = [0.011, 0.016, 0.043, 0.113, 0.149, 0.165, 0.173, 0.174, 0.188]


@pytest.mark.parametrize("shuffle", [False, True])
def test_validate_sums_children_as_the_node_by_node_reference(shuffle):
    # children sums a few ulps off one pass, and the printed sums that fail
    # are the left-to-right ones, signed zeros included
    branches = [
        (0.2, 0.0, [(q, 1.0, []) for q in NINE]),
        (0.2, 1.0, [(0.1, float(i), []) for i in range(10)]),        # 0.9999999999999999
        (0.2, 2.0, [(-0.0, 0.0, []), (-0.0, 1.0, [])]),
        (0.2, 3.0, [(0.3, 0.0, []), (0.3, 1.0, []), (0.4 + 2e-12, 2.0, [])]),
        (0.2, 4.0, [(1.0 / 3.0, float(i), []) for i in range(3)]),
    ]
    proc = build_process([1, 1], branches)
    if shuffle:
        rng = np.random.default_rng(5)
        fresh = (5 * rng.permutation(len(proc.nodes)) + 2).tolist()
        proc = TreeProcess(proc.depth, proc.value_dims, [
            TreeNode(fresh[n.id], None if n.parent is None else fresh[n.parent], n.time, n.value, n.prob)
            for n in map(proc.nodes.__getitem__, rng.permutation(len(proc.nodes)).tolist())])
    got = validate(proc)
    assert got == validate_by_nodes(proc)
    # siblings are summed in node-list order, which shuffling changes
    nine = next(k for k in proc.level(1) if proc.node(k).value == (0.0,))
    left_to_right = functools.reduce(operator.add, (proc.node(c).prob for c in proc.children(nine)), 0.0)
    assert sorted(m.split(" have ")[1] for m in got if "probability sum" in m) == [
        "probability sum 0.0", "probability sum 1.000000000002", f"probability sum {left_to_right!r}"]
    if not shuffle:
        assert "children of node 1 have probability sum 1.0319999999999998" in got


def test_segment_sums_add_left_to_right_from_positive_zero():
    rng = np.random.default_rng(3)
    size = rng.integers(0, 30, size=300)
    size[:4] = [0, 12, 3, 40]
    x = rng.normal(size=size.sum()) * 10.0 ** rng.integers(-12, 13, size=size.sum())
    x[12:15] = -0.0      # a segment of -0.0 only
    ends = np.cumsum(size)[:-1]
    want = np.array([functools.reduce(operator.add, seg.tolist(), 0.0) for seg in np.split(x, ends)])
    got = _segment_sums(x, size)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert math.copysign(1.0, got[2]) == 1.0
    # numpy's own sums group the terms otherwise
    pairwise = np.add.reduceat(x, np.cumsum(size) - size)[size > 0]
    assert (pairwise != want[size > 0]).any()
    assert _segment_sums(np.empty(0), np.zeros(2, dtype=np.intp)).tolist() == [0.0, 0.0]

def test_path_distance_examples():
    assert path_distance([(1.0,), (2.0,)], [(3.0,), (5.0,)], 2.0) == pytest.approx(math.sqrt(13))
    assert path_distance([(1.0,), (2.0,)], [(1.0,), (2.0,)], 2.0) == 0.0
    assert path_distance([(0.0,), (0.0,)], [(1.0,), (1.0,)], 1.0) == pytest.approx(2.0)


def test_path_distance_of_tiny_and_huge_differences_is_their_norm():
    # the squares of the differences underflowed to 0, so these read 0; the
    # norms are the step costs' of aw_distance, bit for bit
    assert path_distance([(0.0,)], [(6e-280,)], 1.0) == 6e-280
    assert path_distance([(0.0, 0.0)], [(3e-200, 4e-200)], 1.0) == 5e-200
    assert path_distance([(0.0, 0.0)], [(3e200, 4e200)], 1.0) == pytest.approx(5e200, rel=1e-15)
    assert path_distance([(0.5, 0.25)], [(0.125, 2.0)], 1.0) == math.sqrt(0.375 ** 2 + 1.75 ** 2)


def order_comparisons(source: str) -> set[str]:
    """The enclosing function (dotted through classes) of every comparison
    between ``p``, as a name or an attribute, and the number 1."""
    found, scope = set(), []

    def is_p(node):
        return (isinstance(node, ast.Name) and node.id == "p") or (
            isinstance(node, ast.Attribute) and node.attr == "p")

    def is_one(node):
        return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 1

    def visit(node):
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        if named:
            scope.append(node.name)
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_p, operands)) and any(map(is_one, operands)):
                found.add(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child)
        if named:
            scope.pop()

    visit(ast.parse(source))
    return found


def test_order_checks_stay_in_one_place():
    # the library checks an order p in trees._check_order; the command line
    # checks --p before it reads a file
    src = Path(adawass.__file__).parent
    sites = {f"{path.stem}.{name}" for path in sorted(src.glob("*.py"))
             for name in order_comparisons(path.read_text(encoding="utf-8"))}
    assert sites == {"trees._check_order", "cli._check_options"}


NODE_VIEWS = {"nodes", "by_id", "children_map"}


def node_view_reads(source: str) -> set[str]:
    """Every ``.nodes``, ``.by_id`` or ``.children_map`` read and every
    ``.node(...)`` or ``.children(...)`` call in ``source``, by name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in NODE_VIEWS:
            found.add(node.attr)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("node", "children")):
            found.add(node.func.attr + "()")
    return found


def tree_node_calls(source: str) -> int:
    """How many times ``source`` calls ``TreeNode(...)``."""
    return sum(isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "TreeNode"
               for node in ast.walk(ast.parse(source)))


def node_view_sites(source: str) -> dict[str, set[str]]:
    """``node_view_reads`` of every top-level function, method and other
    module-level statement in ``source``, by dotted name (``<module>``)."""
    sites = {}
    for top in ast.parse(source).body:
        for stmt in top.body if isinstance(top, ast.ClassDef) else [top]:
            name = getattr(stmt, "name", "<module>")
            if top is not stmt:
                name = f"{top.name}.{name}"
            if found := node_view_reads(ast.unparse(stmt)):
                sites.setdefault(name, set()).update(found)
    return sites


def test_node_views_stay_in_trees():
    # computations read a tree's layout and columns; within trees.py the
    # node views are read only by the views themselves, by the columns of a
    # tree made from nodes, by tree_to_dict and by repr (validate words its
    # messages from the columns), and no library code builds a TreeNode
    src = Path(adawass.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(src.glob("*.py"))}
    assert "trees" in sources
    assert {name: found for name, text in sources.items()
            if name != "trees" and (found := node_view_reads(text))} == {}
    assert node_view_sites(sources["trees"]) == {
        "TreeProcess.__repr__": {"nodes"},
        "TreeProcess.columns": {"nodes"},
        "TreeProcess.by_id": {"nodes"},
        "TreeProcess.children": {"children_map"},
        "TreeProcess.node": {"by_id"},
        "tree_to_dict": {"nodes"},
    }
    assert node_view_sites("class A:\n    def f(self):\n        return self.nodes\nx = t.by_id\n"
                           "def g(t):\n    return t.children(1)\n") == {
        "A.f": {"nodes"}, "<module>": {"by_id"}, "g": {"children()"}}
    assert {name: n for name, text in sources.items() if (n := tree_node_calls(text))} == {}
    assert node_view_reads("x.nodes; y.by_id; z.children_map; t.node(1); t.children(2)") == {
        "nodes", "by_id", "children_map", "node()", "children()"}
    assert tree_node_calls("TreeNode(0, None, 0, None, 1.0); trees.TreeNode(1, 0, 1, (0.0,), 1.0)") == 2


def self_calls(source: str) -> set[str]:
    """Every function in ``source`` that calls itself by name, as ``f(...)``
    or ``self.f(...)``/``cls.f(...)``, in its body or a function nested in it."""
    def called(func):
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in ("self", "cls"):
            return func.attr
        return getattr(func, "id", None)

    return {fn.name for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(node, ast.Call) and called(node.func) == fn.name for node in ast.walk(fn))}


def test_no_library_function_calls_itself():
    # recursion stops at Python's recursion limit, about a thousand levels:
    # the library walks trees and information states with explicit stacks
    src = Path(adawass.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(src.glob("*.py"))}
    assert {"trees", "canonical", "cli"} <= set(sources)
    assert {f"{name}.{fn}" for name, text in sources.items() for fn in self_calls(text)} == set()
    assert self_calls("def f(n):\n    def g():\n        return f(n - 1)\n    return g()\n"
                      "class A:\n    def h(self):\n        return self.h()\n"
                      "    def k(self):\n        return other.k()\n") == {"f", "h"}



SOLVER_INTERNALS = re.compile(r"\b(_solve_batch|_simplex_shape|_transport_simplex|_transport_2x2|_LEVEL_BATCH)\b")


def test_transport_solver_internals_stay_in_discrete_ot():
    # discrete_ot alone checks, dispatches and batches transport problems;
    # other modules reach them through _solve_level or solve_transport
    src = Path(adawass.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(src.glob("*.py"))}
    assert {"discrete_ot", "bicausal"} <= set(sources)
    assert {name: sorted(set(SOLVER_INTERNALS.findall(text))) for name, text in sources.items()
            if name != "discrete_ot" and SOLVER_INTERNALS.search(text)} == {}
    assert len(set(SOLVER_INTERNALS.findall(sources["discrete_ot"]))) == 5
    assert SOLVER_INTERNALS.findall("from .discrete_ot import _solve_batch, my_simplex_shape\nx._LEVEL_BATCH") == [
        "_solve_batch", "_LEVEL_BATCH"]


def builtin_sum_calls(source: str, function: str | None = None) -> int:
    """How many times ``source``, or its top-level function ``function``,
    calls the builtin ``sum(...)``."""
    tree = ast.parse(source)
    if function is not None:
        tree = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == function)
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
               for node in ast.walk(tree))


def test_canonical_forms_and_validate_call_no_builtin_sum():
    # Python's sum adds floats with compensation from 3.12 on; canonical
    # masses and validate's children sums are trees._segment_sums, left to
    # right from +0.0 on any interpreter
    src = Path(adawass.__file__).parent
    assert builtin_sum_calls((src / "canonical.py").read_text(encoding="utf-8")) == 0
    assert builtin_sum_calls((src / "trees.py").read_text(encoding="utf-8"), "validate") == 0
    assert builtin_sum_calls("def f(x):\n    return sum(x) + np.sum(x) + x.sum()\ny = sum([])\n") == 2
    assert builtin_sum_calls("def f(x):\n    return sum(x)\ny = sum([])\n", "f") == 1

def random_description(rng, depth, dims):
    """Nested ``build_process`` branches whose values are scalars or tuples
    and lists of ints, floats and numpy floats, and whose probabilities are
    floats or ints."""
    def number():
        return [int(rng.integers(-3, 4)), float(rng.normal()), np.float64(rng.normal())][int(rng.integers(3))]

    def branches(t):
        if t > depth:
            return []
        out = []
        for _ in range(int(rng.integers(1, 4))):
            if dims[t - 1] == 1 and rng.random() < 0.5:
                value = number()
            else:
                value = [number() for _ in range(dims[t - 1])]
                value = tuple(value) if rng.random() < 0.5 else value
            out.append((float(rng.uniform(0.1, 1.0)) if rng.random() < 0.8 else 1, value, branches(t + 1)))
        return out

    return branches(1)


def test_build_process_matches_the_node_by_node_builder():
    # the columns filled by an explicit-stack walk: the nodes, layout and
    # document the former recursive builder gives
    rng = np.random.default_rng(41)
    for _ in range(200):
        depth = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 3)) for _ in range(depth)]
        branches = random_description(rng, depth, dims)
        got, ref = build_process(dims, branches), build_process_by_nodes(dims, branches)
        assert not NODE_VIEWS & set(vars(got))
        assert (got.depth, got.value_dims) == (ref.depth, ref.value_dims)
        assert_same_layout(got.layout, layout_by_nodes(ref))
        assert _tree_json(got) == _tree_json(ref)
        assert repr(got.nodes) == repr(ref.nodes)


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
    assert total_mass(law) == pytest.approx(1.0)


def test_path_law_masses_positive_and_normalized_on_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(50):
        proc = random_process(rng)
        law = path_law(proc)
        assert all(m > 0 for _, m in law.atoms)
        assert abs(total_mass(law) - 1.0) <= 1e-12


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
    assert total_mass(law) == pytest.approx(1.0, abs=1e-12)
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


QUANTIZE_SAMPLES = [[8, 0], [1, 2], [1, 8], [8, 5], [0, 0], [3, 4], [6, 4], [2, 1], [6, 7],
                    [0, 1], [4, 3]]


@pytest.mark.parametrize("seed, expected", [
    (0, [(0, None, 0, None, 1.0),
         (1, 0, 1, (1.5714285714285714,), 0.6363636363636364),
         (2, 1, 2, (0.0,), 0.14285714285714285),
         (3, 1, 2, (1.75,), 0.5714285714285714),
         (4, 1, 2, (6.0,), 0.2857142857142857),
         (5, 0, 1, (7.0,), 0.36363636363636365),
         (6, 5, 2, (0.0,), 0.25),
         (7, 5, 2, (4.5,), 0.5),
         (8, 5, 2, (7.0,), 0.25)]),
    (5, [(0, None, 0, None, 1.0),
         (1, 0, 1, (1.5714285714285714,), 0.6363636363636364),
         (2, 1, 2, (1.0,), 0.5714285714285714),
         (3, 1, 2, (3.5,), 0.2857142857142857),
         (4, 1, 2, (8.0,), 0.14285714285714285),
         (5, 0, 1, (7.0,), 0.36363636363636365),
         (6, 5, 2, (0.0,), 0.25),
         (7, 5, 2, (4.5,), 0.5),
         (8, 5, 2, (7.0,), 0.25)]),
])
def test_quantize_node_list_is_pinned(seed, expected):
    # both level-1 groups cluster with draws from the one rng, in depth-first
    # order; drawing for them in another order changes these node lists
    proc = quantize_paths(QUANTIZE_SAMPLES, [2, 3], seed=seed)
    assert (proc.depth, proc.value_dims) == (2, (1, 1))
    assert repr([(n.id, n.parent, n.time, n.value, n.prob) for n in proc.nodes]) == repr(expected)


def test_quantize_rejects_bad_input():
    with pytest.raises(ValueError):
        quantize_paths([], [2])
    with pytest.raises(ValueError):
        quantize_paths([[(1.0,)]], [0])
    with pytest.raises(ValueError, match="at least one value"):
        quantize_paths([[[], []], [[], []]], [2, 2])
    with pytest.raises(ValueError, match="at least one step"):
        quantize_paths([[]], [])


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
