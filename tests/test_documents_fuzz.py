"""Property tests: malformed documents never end in a traceback, and the
template writers write what ``json`` and ``csv`` write.

Tree documents go through ``dist``, plan documents through ``check-plan``,
curve documents through ``represent`` and ``curve-energy``, and samples
documents through ``quantize``.

Each example takes a valid document, applies one to three random edits
(replace any entry by an arbitrary JSON value, NaN and infinities included,
delete it, or duplicate a list entry) and runs the command-line tool on it.
Every run must end in exit 0 with its normal output (the edits left the
document valid), or in exit 2 (bad input) or 3 (shape mismatch) with exactly
one line on stderr.
"""

import copy
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adawass import (
    CommonSpaceFlow,
    TreeNode,
    TreeProcess,
    aw_distance,
    build_process,
    tree_from_dict,
    tree_to_dict,
    validate,
)
from adawass.cli import _flow_json, _plan_json, _tree_json, _write_particles_csv, main
from adawass.trees import _float_fields, _int_field, _int_fields

from conftest import (
    FUZZ,
    assert_same_layout,
    flow_to_dict,
    layout_by_nodes,
    validate_by_nodes,
    write_particles_by_label_path,
)

X = build_process([1, 2], [
    (0.25, 0.0, [(0.5, (1.0, 0.0), []), (0.5, (-1.0, 0.5), [])]),
    (0.75, 2.0, [(0.2, (0.0, 1.0), []), (0.3, (1.0, 1.0), []), (0.5, (2.0, 0.0), [])]),
])
Y = build_process([1, 2], [
    (0.5, 1.0, [(1.0, (0.0, 0.0), [])]),
    (0.5, -1.0, [(0.4, (1.0, -1.0), []), (0.6, (0.5, 0.5), [])]),
])
TREE_DOC = tree_to_dict(X)
PLAN_DOC = json.loads(_plan_json(aw_distance(X, Y, 2.0)[1]))
CURVE_DOC = {"grid": [0.0, 0.5, 1.0], "p": 2.0, "processes": [TREE_DOC, tree_to_dict(Y), TREE_DOC]}
SAMPLES_DOC = {"samples": [[0.0, [1.0, 0.0]], [[0.5], [-1.0, 0.5]], [1.5, [0.0, 1.0]],
                           [[2.0], [1.0, 1.0]], [2.5, [2.0, 0.0]]]}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def slots(doc, path=()):
    """The path of every entry of a JSON document, the document itself first."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from slots(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from slots(value, path + (i,))


@st.composite
def edited(draw, base):
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(slots(doc))))
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if action == "delete":
            del parent[key]
        elif action == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = draw(json_values)
    return doc


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    assert code in (0, 2, 3), (code, err)
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert err == ""


def non_finite_masses(doc):
    try:
        return any(isinstance(e["mass"], float) and not math.isfinite(e["mass"])
                   for e in doc["pairs"])
    except (KeyError, TypeError, IndexError):
        return False


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    (base / "x.json").write_text(json.dumps(TREE_DOC))
    (base / "y.json").write_text(json.dumps(tree_to_dict(Y)))
    return base


@FUZZ
@given(doc=edited(TREE_DOC), second=st.booleans())
def test_malformed_tree_documents_exit_cleanly(files, doc, second):
    bad = files / "bad-tree.json"
    bad.write_text(json.dumps(doc))
    y = str(files / "y.json")
    code, out, err = run_main(["dist", y, str(bad)] if second else ["dist", str(bad), y])
    assert_clean_exit(code, out, err)
    if code == 0:
        assert np.isfinite(float(out))


@FUZZ
@given(doc=edited(PLAN_DOC))
def test_malformed_plan_documents_exit_cleanly(files, doc):
    bad = files / "bad-plan.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_main(["check-plan", str(bad), str(files / "x.json"), str(files / "y.json")])
    assert_clean_exit(code, out, err)
    if code == 0:
        assert out in ("bicausal\n", "not bicausal\n")
    if non_finite_masses(doc):
        assert code == 2


@FUZZ
@given(doc=edited(CURVE_DOC), represent=st.booleans())
def test_malformed_curve_documents_exit_cleanly(files, doc, represent):
    bad = files / "bad-curve.json"
    bad.write_text(json.dumps(doc))
    argv = (["represent", str(bad), "--out", str(files / "flow.json")] if represent
            else ["curve-energy", str(bad)])
    code, out, err = run_main(argv)
    assert_clean_exit(code, out, err)
    if code == 0:
        assert np.isfinite(float(out))


@FUZZ
@given(doc=edited(SAMPLES_DOC), branching=st.sampled_from(["2,2", "1,3", "3,1"]))
def test_malformed_samples_documents_exit_cleanly(files, doc, branching):
    bad = files / "bad-samples.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_main(["quantize", str(bad), "--branching", branching,
                               "--out", str(files / "quantized.json")])
    assert_clean_exit(code, out, err)
    if code == 0:
        assert out.endswith(" scenarios\n")
        assert validate(tree_from_dict(json.loads((files / "quantized.json").read_text()))) == []


@pytest.mark.parametrize("reader", ["tree", "plan", "curve", "samples"])
def test_deeply_nested_documents_exit_cleanly(files, reader):
    # json.load recurses once per nesting level, so 100,000 nested lists
    # raised RecursionError: exit 1 with a 30-line traceback
    deep = files / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    x, y = str(files / "x.json"), str(files / "y.json")
    argv = {"tree": ["canonical", str(deep)],
            "plan": ["check-plan", str(deep), x, y],
            "curve": ["curve-energy", str(deep)],
            "samples": ["quantize", str(deep), "--branching", "2,2", "--out", str(files / "deep-out.json")]}
    code, out, err = run_main(argv[reader])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {deep}: ")


# -- the template writers against json.dumps(indent=2) and csv.writer ----------

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 0.1, -1.5,
                  1e16, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
floats = st.sampled_from(SPECIAL_FLOATS) | st.floats()


@st.composite
def number_pools(draw):
    """A strategy drawing from a few numbers, so values repeat: floats
    (signed zeros, subnormals, non-finite ones among them) or ints."""
    if draw(st.booleans()):
        return st.sampled_from(draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4)))
    return st.sampled_from(draw(st.lists(floats, min_size=1, max_size=5)))


@st.composite
def trees(draw, values, probs):
    """A tree listed depth-first (its build order) or breadth-first."""
    depth = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=depth, max_size=depth)))
    nodes = [TreeNode(id=0, parent=None, time=0, value=None, prob=1.0)]

    def grow(pid, t):
        for _ in range(draw(st.integers(1, 3))):
            nid = len(nodes)
            value = tuple(draw(st.lists(values, min_size=dims[t - 1], max_size=dims[t - 1])))
            nodes.append(TreeNode(id=nid, parent=pid, time=t, value=value, prob=draw(probs)))
            if t < depth:
                grow(nid, t + 1)

    grow(0, 1)
    if draw(st.booleans()):
        nodes.sort(key=lambda n: n.time)
    return TreeProcess(depth=depth, value_dims=dims, nodes=tuple(nodes))


@FUZZ
@given(data=st.data())
def test_tree_documents_match_the_json_encoder(data):
    pool = data.draw(number_pools())
    tree = data.draw(trees(pool, data.draw(number_pools())))
    assert _tree_json(tree) == json.dumps(tree_to_dict(tree), indent=2)


@FUZZ
@given(data=st.data())
def test_flow_documents_and_particles_match_json_and_csv(files, data):
    labels = data.draw(number_pools())
    # finite positive probabilities: the particle paths read the reach probabilities
    probs = st.sampled_from(data.draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3)))
    base = data.draw(trees(data.draw(number_pools()), probs))
    # a flow's grid runs strictly increasing from 0 to 1
    inner = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    grid = [0.0, *sorted(data.draw(st.lists(inner, max_size=2, unique=True))), 1.0]
    labellings = [{n.id: tuple(data.draw(st.lists(labels, min_size=len(n.value), max_size=len(n.value))))
                   for n in base.nodes if n.value is not None} for _ in grid]
    flow = CommonSpaceFlow(base=base, grid=tuple(grid), labels=tuple(labellings),
                           p=data.draw(floats), interpolation=data.draw(st.sampled_from(["linear", "constant"])))
    assert _flow_json(flow) == json.dumps(flow_to_dict(flow), indent=2)
    got, want = files / "particles.csv", files / "particles-ref.csv"
    _write_particles_csv(str(got), flow)
    write_particles_by_label_path(str(want), flow)
    assert got.read_bytes() == want.read_bytes()


# -- trees built from nodes and from columns -----------------------------------

def tree_from_dict_by_nodes(data):
    """The former tree_from_dict: one ``TreeNode`` per document entry."""
    raw = data["nodes"]
    nodes = tuple(map(TreeNode, _int_fields([n["id"] for n in raw]),
                      _int_fields([n["parent"] for n in raw], nullable=True),
                      _int_fields([n["time"] for n in raw]),
                      [None if n["value"] is None else tuple(_float_fields(n["value"])) for n in raw],
                      _float_fields([n["prob"] for n in raw])))
    return TreeProcess(depth=_int_field(data["depth"]), value_dims=tuple(_int_fields(list(data["value_dims"]))),
                       nodes=nodes)


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


@st.composite
def built_trees(draw):
    """A ``build_process`` tree: normalized probabilities, now and then one
    replaced by any float, and values that may be non-finite."""
    depth = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 3), min_size=depth, max_size=depth))
    values = st.floats(-10.0, 10.0) | st.sampled_from(SPECIAL_FLOATS)

    def branches(t):
        if t > depth:
            return []
        weights = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3))
        probs = [w / sum(weights) for w in weights]
        if draw(st.integers(0, 9)) == 0:
            probs[draw(st.integers(0, len(probs) - 1))] = draw(floats)
        return [(q, tuple(draw(st.lists(values, min_size=dims[t - 1], max_size=dims[t - 1]))),
                 branches(t + 1)) for q in probs]

    return build_process(dims, branches(1))


@FUZZ
@given(data=st.data())
def test_trees_built_from_nodes_and_from_columns_agree(data):
    # a node-built tree and the tree tree_from_dict fills from its document:
    # the same layout as the former builder makes from the nodes, the
    # former per-node validate report, and the same document text
    if data.draw(st.booleans()):
        by_nodes = data.draw(built_trees())
        doc = tree_to_dict(by_nodes)
    else:
        doc = data.draw(edited(TREE_DOC))
        try:
            by_nodes = tree_from_dict_by_nodes(doc)
        except (KeyError, TypeError, OverflowError):
            with pytest.raises(ValueError, match="malformed tree document"):
                tree_from_dict(doc)
            return
    by_columns = tree_from_dict(doc)
    report = outcome(validate_by_nodes, by_nodes)
    assert outcome(validate, by_columns) == outcome(validate, by_nodes) == report
    if report == []:
        assert by_columns == by_nodes     # content equality; NaN is unequal to itself
    assert outcome(_tree_json, by_columns) == outcome(_tree_json, by_nodes)
    reference = outcome(layout_by_nodes, by_nodes)
    for tree in (by_columns, by_nodes):
        layout = outcome(lambda: tree.layout)
        if isinstance(reference, type):
            assert layout is reference
        else:
            assert_same_layout(layout, reference)
