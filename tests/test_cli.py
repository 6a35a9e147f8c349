import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import adawass
from adawass import (
    GridCurve,
    InfeasibleError,
    ShapeMismatchError,
    SizeGuardError,
    SolverError,
    TreeNode,
    TreeProcess,
    UnboundedError,
    aw_distance,
    build_process,
    canonicalize,
    chain_process,
    check_bicausal,
    discrete_ot,
    dyadic_grid,
    equivalent,
    geodesic,
    metric_derivative,
    p_energy,
    process_with_values,
    quantize_paths,
    represent_curve,
    skorokhod,
    tree_from_dict,
    tree_to_dict,
    validate,
)
from adawass.bicausal import BicausalPlan
from adawass.cli import _flow_json, _load_tree, _plan_from_dict, _plan_json, _tree_json, _write_particles_csv, main

from conftest import (
    canonicalize_by_nodes,
    encoded,
    epsilon_x,
    epsilon_y,
    flow_to_dict,
    leaf_paths,
    random_process,
    write_particles_by_label_path,
)


@pytest.fixture
def write_tree(tmp_path):
    def _write(name, proc):
        path = tmp_path / name
        path.write_text(json.dumps(tree_to_dict(proc)))
        return str(path)

    return _write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_dirac_output(write_tree, capsys):
    a = write_tree("a.json", chain_process([1.0, 2.0]))
    b = write_tree("b.json", chain_process([3.0, 5.0]))
    code, out, _ = run(capsys, ["dist", a, b, "--p", "2"])
    assert code == 0
    assert out.strip() == "3.605551275464"


def test_dist_identical_files(write_tree, capsys):
    a = write_tree("a.json", chain_process([1.0, 2.0]))
    code, out, _ = run(capsys, ["dist", a, a])
    assert code == 0
    assert out.strip() == "0.000000000000"


def test_dist_epsilon_example(write_tree, capsys):
    x = write_tree("x.json", epsilon_x())
    y = write_tree("y.json", epsilon_y(0.1))
    code, out, _ = run(capsys, ["dist", x, y, "--p", "1"])
    assert code == 0
    assert out.strip() == "1.100000000000"


def test_exit_codes(write_tree, capsys, tmp_path):
    a = write_tree("a.json", chain_process([1.0, 2.0]))
    short = write_tree("short.json", chain_process([1.0]))
    bad = tmp_path / "bad.json"
    bad.write_text("{nonsense")
    assert run(capsys, ["dist", a, str(bad)])[0] == 2
    assert run(capsys, ["dist", a, str(tmp_path / "missing.json")])[0] == 2
    assert run(capsys, ["dist", a, short])[0] == 3
    # invalid tree content (probabilities not summing to one)
    invalid = build_process([1], [(0.5, 0.0, []), (0.6, 1.0, [])])
    f = write_tree("invalid.json", invalid)
    assert run(capsys, ["dist", a, f])[0] == 2
    # leaf masses summing to one only within PROB_TOL per level
    drift = write_tree("drift.json", build_process([1, 1], [(1.0 + 0.9e-12, 0.0, [(1.0 + 0.9e-12, 0.0, [])])]))
    code, _, err = run(capsys, ["dist", a, drift])
    assert code == 2 and err.endswith("invalid tree: leaf masses sum to 1.0000000000018, expected 1\n")
    # zero-dimensional values, as a quantize of empty sample steps wrote them
    flat = write_tree("flat.json", TreeProcess(depth=2, value_dims=(0, 0), nodes=(
        TreeNode(0, None, 0, None, 1.0), TreeNode(1, 0, 1, (), 1.0), TreeNode(2, 1, 2, (), 1.0))))
    for argv in (["dist", flat, flat], ["geodesic", flat, flat]):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "value_dims [0, 0] has an entry below 1" in err and len(err.splitlines()) == 1
    # unwritable output paths: a missing directory, or a directory in place of a file
    missing = str(tmp_path / "missing" / "out")
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"grid": [0.0, 1.0],
                                 "processes": [tree_to_dict(chain_process([1.0, 2.0]))] * 2}))
    for argv in (["dist", a, a, "--plan", missing], ["plan", a, a, "--out", str(tmp_path)],
                 ["curve-energy", str(curve), "--csv", missing],
                 ["canonical", a, "--out", str(tmp_path)],
                 ["geodesic", a, a, "--csv", missing], ["geodesic", a, a, "--particles", missing],
                 ["geodesic", a, a, "--out", missing]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("error, expected", [
    (ShapeMismatchError, 3), (InfeasibleError, 5), (UnboundedError, 5), (SolverError, 5),
    (SizeGuardError, 4), (ValueError, 2), (OverflowError, 2),
])
def test_each_error_maps_to_its_exit_code(write_tree, capsys, monkeypatch, error, expected):
    # ShapeMismatchError, InfeasibleError and UnboundedError are ValueErrors:
    # the order of the handlers in main decides their codes
    a = write_tree("a.json", chain_process([1.0, 2.0]))

    def fail(*args):
        raise error("raised under the command")

    monkeypatch.setattr("adawass.cli.aw_distance", fail)
    code, out, err = run(capsys, ["dist", a, a])
    assert (code, out) == (expected, "")
    assert err.startswith("error: ") and err.endswith("raised under the command\n")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["value", "prob"])
def test_non_finite_input_exit_code(write_tree, capsys, tmp_path, bad, field):
    good = build_process([1], [(0.5, 0.0, []), (0.5, 1.0, [])])
    doc = tree_to_dict(good)
    doc["nodes"][1][field] = [bad] if field == "value" else bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    g = write_tree("good.json", good)
    for argv in (["dist", str(path), g], ["canonical", str(path)], ["equiv", g, str(path)]):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "non-finite" in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("option", [["--p", "0.5"], ["--grid", "0,1,0.5"]])
def test_bad_option_exit_code(write_tree, capsys, option):
    a = write_tree("a.json", chain_process([1.0, 2.0]))
    code, _, err = run(capsys, ["geodesic", a, a, *option])
    assert code == 2
    assert err.startswith(f"error: {option[0]}")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["canonical", "{a}", "--tol-equiv", "nan"],
    ["canonical", "{a}", "--tol-equiv", "inf"],
    ["equiv", "{a}", "{a}", "--tol-equiv=-1e-9"],
    ["geodesic", "{a}", "{a}", "--dyadic", "-1"],
    ["geodesic", "{a}", "{a}", "--max-leaves", "0"],
    ["geodesic", "{a}", "{a}", "--dyadic", "21"],
    # rejected before any of its 2**40 + 1 grid points is built
    ["geodesic", "{a}", "{a}", "--dyadic", "40"],
])
def test_bad_tolerance_or_dyadic_exit_code(write_tree, capsys, argv):
    a = write_tree("a.json", build_process([1], [(0.5, 0.0, []), (0.5, 5.0, [])]))
    option = next(arg.split("=")[0] for arg in argv if arg.startswith("--"))
    code, out, err = run(capsys, [arg.format(a=a) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {option}")
    assert len(err.strip().splitlines()) == 1


def write_seq(tmp_path, procs):
    """A skorokhod sequence directory, files sorted by name in list order."""
    seq_dir = tmp_path / "seq"
    seq_dir.mkdir()
    for n, proc in enumerate(procs):
        (seq_dir / f"{n:02d}.json").write_text(json.dumps(tree_to_dict(proc)))
    return str(seq_dir)


@pytest.mark.parametrize("argv", [
    ["skorokhod", "{seq}", "{limit}", "--weights", "a,b"],
    ["skorokhod", "{seq}", "{limit}", "--weights", "0.5,-0.5"],
    ["skorokhod", "{seq}", "{limit}", "--weights", "0.2,0.2"],
    ["skorokhod", "{seq}", "{limit}", "--weights", "1"],
    ["skorokhod", "{seq}", "{limit}", "--weights", "nan,1"],
    ["quantize", "{samples}", "--branching", "x,2"],
    # a sequence directory with no process file
    ["skorokhod", "{empty}", "{limit}"],
])
def test_bad_weights_or_branching_exit_code(write_tree, capsys, tmp_path, argv):
    seq = write_seq(tmp_path, [chain_process([1.0, 1.0]), chain_process([0.5, 0.5])])
    limit = write_tree("limit.json", chain_process([0.0, 0.0]))
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({"samples": [[[0.0], [1.0]], [[1.0], [2.0]]]}))
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("no process here")
    code, out, err = run(capsys, [a.format(seq=seq, limit=limit, samples=samples, empty=empty) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_successive_main_calls_match_fresh_processes(write_tree, capsys, tmp_path):
    rng = np.random.default_rng(19)
    x = write_tree("x.json", random_process(rng, 2, (1, 1), 3))
    y = write_tree("y.json", random_process(rng, 2, (1, 1), 3))
    calls = [["geodesic", x, y, "--grid", "0,0.5,1", "--p", "1", "--out", "{out}"],
             ["geodesic", x, y, "--out", "{out}"]]
    env = dict(os.environ, PYTHONPATH=str(Path(adawass.__file__).parents[1]))
    for k, argv in enumerate(calls):
        here, fresh = tmp_path / f"here{k}.json", tmp_path / f"fresh{k}.json"
        code, out, _ = run(capsys, [a.format(out=here) for a in argv])
        proc = subprocess.run([sys.executable, "-m", "adawass.cli", *[a.format(out=fresh) for a in argv]],
                              capture_output=True, text=True, env=env, check=True)
        assert code == 0
        assert out == proc.stdout
        assert here.read_bytes() == fresh.read_bytes()


def retyped_curve_processes(*edits):
    """The four tree documents of the curve below, each with its
    (node, key, value) edits applied."""
    docs = [tree_to_dict(chain_process([v, v])) for v in (0.0, 1.0, 0.0, 1.0)]
    for doc in docs:
        for node, key, value in edits:
            doc["nodes"][node][key] = value
    return docs


@pytest.mark.parametrize("command", ["curve-energy", "represent"])
@pytest.mark.parametrize("field,bad", [("grid", [0.0, 0.5, 0.5, 1.0]),
                                       ("grid", [0.0, 0.75, 0.5, 1.0]),
                                       ("p", 0.5),
                                       # numbers of the wrong type
                                       ("grid", [0.0, "0.5", 0.75, 1.0]),
                                       ("grid", [False, 1 / 3, 2 / 3, True]),
                                       ("p", "2"),
                                       ("p", True),
                                       ("processes", retyped_curve_processes((1, "id", 1.7),
                                                                             (2, "parent", 1.2))),
                                       ("processes", retyped_curve_processes((1, "time", True))),
                                       ("processes", retyped_curve_processes((2, "value", ["2.0"]))),
                                       ("processes", retyped_curve_processes((1, "prob", "1.0")))])
def test_bad_curve_document_exit_code(capsys, tmp_path, command, field, bad):
    a, b = chain_process([0.0, 0.0]), chain_process([1.0, 1.0])
    doc = {"grid": [0.0, 1 / 3, 2 / 3, 1.0], "p": 2.0,
           "processes": [tree_to_dict(t) for t in (a, b, a, b)]}
    doc[field] = bad
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)] + (["--out", str(tmp_path / "f.json")] if command == "represent" else [])
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["geodesic", "curve-energy", "represent"])
def test_a_nan_grid_point_exits_2_without_output(capsys, tmp_path, command):
    # NaN compares false both ways, so a "b <= a" check let it through:
    # geodesic wrote a flow document with NaN tokens (not JSON), and
    # curve-energy and represent printed nan, all with exit 0
    a, b = chain_process([0.0, 0.0]), chain_process([1.0, 1.0])
    x = tmp_path / "x.json"
    x.write_text(json.dumps(tree_to_dict(a)))
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"grid": [0.0, math.nan, 1.0], "p": 2.0,
                                 "processes": [tree_to_dict(t) for t in (a, b, a)]}))
    out_file = tmp_path / "f.json"
    argv = {"geodesic": ["geodesic", str(x), str(x), "--grid", "0,nan,1", "--out", str(out_file)],
            "curve-energy": ["curve-energy", str(curve)],
            "represent": ["represent", str(curve), "--out", str(out_file)]}[command]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "strictly increasing" in err
    assert len(err.strip().splitlines()) == 1
    assert not out_file.exists()


def test_geodesic_prints_the_dist_line(write_tree, capsys, tmp_path):
    rng = np.random.default_rng(5)
    x = write_tree("x.json", random_process(rng, 2, (1, 1), 3))
    y = write_tree("y.json", random_process(rng, 2, (1, 1), 3))
    for p in ("1", "2"):
        code, dist_out, _ = run(capsys, ["dist", x, y, "--p", p])
        assert code == 0
        code, geo_out, _ = run(capsys, ["geodesic", x, y, "--p", p, "--grid", "0,0.5,1"])
        assert code == 0
        assert geo_out == dist_out


def test_threads_environment_variable_is_ignored(write_tree, capsys, monkeypatch):
    monkeypatch.setenv("ADAWASS_THREADS", "abc")
    a = write_tree("a.json", chain_process([1.0, 2.0]))
    assert run(capsys, ["canonical", a])[0] == 0


def test_size_guard_exit_code(write_tree, capsys, tmp_path):
    rng = np.random.default_rng(7)
    x = write_tree("x.json", random_process(rng, 2, (1, 1), 3, min_prob=0.3))
    y = write_tree("y.json", random_process(rng, 2, (1, 1), 3, min_prob=0.3))
    code, _, err = run(capsys, ["geodesic", x, y, "--grid", "0,0.5,1",
                                "--max-leaves", "1", "--out", str(tmp_path / "f.json")])
    assert code == 4
    assert "leaves" in err


def test_plan_round_trip_and_check(write_tree, capsys, tmp_path):
    x = write_tree("x.json", epsilon_x())
    y = write_tree("y.json", epsilon_y(0.1))
    plan_file = str(tmp_path / "plan.json")
    code, out, _ = run(capsys, ["dist", x, y, "--p", "1", "--plan", plan_file])
    assert code == 0
    doc = json.loads(open(plan_file).read())
    assert doc["p"] == 1.0
    assert doc["value"] == pytest.approx(1.1)
    assert sum(e["mass"] for e in doc["pairs"]) == pytest.approx(1.0)
    code, out, _ = run(capsys, ["check-plan", plan_file, x, y])
    assert code == 0
    assert out.strip() == "bicausal"


def plan_to_dict(plan):
    """The plan document as data; the reference for the template writer."""
    pairs = [
        {"leaf_x": k, "leaf_y": l, "mass": m}
        for (k, l), m in sorted(plan.pair_masses.items())
    ]
    return {"pairs": pairs, "value": plan.value, "p": plan.p}


def test_plan_documents_match_the_json_encoder(write_tree, capsys, tmp_path):
    rng = np.random.default_rng(11)
    for p in ("1", "2"):
        x, y = random_process(rng, 3, (1, 2, 1), 4), random_process(rng, 3, (1, 2, 1), 4)
        xp, yp = write_tree("x.json", x), write_tree("y.json", y)
        expected = json.dumps(plan_to_dict(aw_distance(x, y, float(p))[1]), indent=2) + "\n"
        plan_file = tmp_path / "plan.json"
        assert run(capsys, ["dist", xp, yp, "--p", p, "--plan", str(plan_file)])[0] == 0
        assert plan_file.read_bytes() == expected.encode()
        code, out, _ = run(capsys, ["plan", xp, yp, "--p", p])
        assert code == 0 and out == expected
    empty = BicausalPlan(x=x, y=y, p=2.0, pair_masses={}, value=0.0)
    assert _plan_json(empty) == json.dumps(plan_to_dict(empty), indent=2)


def test_flow_and_tree_documents_match_the_json_encoder(write_tree, capsys, tmp_path):
    rng = np.random.default_rng(17)
    # geodesic on a pair whose dims (so the product's) differ by level
    x, y = random_process(rng, 3, (1, 2, 1), 3), random_process(rng, 3, (1, 2, 1), 3)
    xp, yp = write_tree("x.json", x), write_tree("y.json", y)
    out_file, part_file, ref_file = (tmp_path / n for n in ("geo.json", "part.csv", "ref.csv"))
    assert run(capsys, ["geodesic", xp, yp, "--p", "1.5", "--out", str(out_file),
                        "--particles", str(part_file)])[0] == 0
    flow = geodesic(x, y, 1.5, dyadic_grid(2))
    assert out_file.read_bytes() == encoded(flow_to_dict(flow))
    write_particles_by_label_path(ref_file, flow)
    assert part_file.read_bytes() == ref_file.read_bytes()

    procs = tuple(random_process(rng, 2, (2, 1), 3) for _ in range(3))
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps({"grid": [0.0, 0.3, 1.0], "p": 2.0,
                                      "processes": [tree_to_dict(t) for t in procs]}))
    assert run(capsys, ["represent", str(curve_file), "--out", str(out_file)])[0] == 0
    flow = represent_curve(GridCurve(grid=(0.0, 0.3, 1.0), processes=procs, p=2.0))
    assert out_file.read_bytes() == encoded(flow_to_dict(flow))
    _write_particles_csv(str(part_file), flow)
    write_particles_by_label_path(ref_file, flow)
    assert part_file.read_bytes() == ref_file.read_bytes()

    seq = [random_process(rng, 2, (1, 1), 2) for _ in range(3)]
    limit = write_tree("limit.json", seq[2])
    assert run(capsys, ["skorokhod", write_seq(tmp_path, seq[:2]), limit,
                        "--weights", "0.25,0.75", "--out", str(out_file)])[0] == 0
    assert out_file.read_bytes() == encoded(flow_to_dict(skorokhod(seq[:2], seq[2], 2.0, [0.25, 0.75])))

    dup = build_process([1, 1], [(0.5, 0.0, [(0.5, -1.0, []), (0.5, 1.0, [])])] * 2)
    assert run(capsys, ["canonical", write_tree("dup.json", dup), "--out", str(out_file)])[0] == 0
    assert out_file.read_bytes() == encoded(tree_to_dict(canonicalize(dup)))

    samples = [[[float(v)], [float(v + w)]] for v, w in rng.normal(size=(40, 2))]
    sfile = tmp_path / "samples.json"
    sfile.write_text(json.dumps({"samples": samples}))
    assert run(capsys, ["quantize", str(sfile), "--branching", "2,3", "--seed", "5",
                        "--out", str(out_file)])[0] == 0
    assert out_file.read_bytes() == encoded(tree_to_dict(quantize_paths(samples, [2, 3], seed=5)))

    # library-built: int entries stay ints, as json writes them
    ints = TreeProcess(depth=1, value_dims=(2,), nodes=(
        TreeNode(id=0, parent=None, time=0, value=None, prob=1),
        TreeNode(id=1, parent=0, time=1, value=(1, -2), prob=1)))
    assert (_tree_json(ints) + "\n").encode() == encoded(tree_to_dict(ints))
    curve = GridCurve(grid=(0.0, 1.0), p=2,
                      processes=(chain_process([[1], [2, 3]]), chain_process([[4], [5, 6]])))
    flow = represent_curve(curve)
    assert (_flow_json(flow) + "\n").encode() == encoded(flow_to_dict(flow))


def test_solver_failure_exit_code(write_tree, capsys, monkeypatch):
    # no pivot allowed: the first general nodewise problem hits the iteration limit
    monkeypatch.setattr(discrete_ot, "_MAX_PIVOTS_PER_CELL", 0)
    rng = np.random.default_rng(13)
    x = write_tree("x.json", random_process(rng, 2, (1, 1), 3, min_prob=0.3))
    y = write_tree("y.json", random_process(rng, 2, (1, 1), 3, min_prob=0.3))
    code, out, err = run(capsys, ["dist", x, y])
    assert code == 5
    assert out == ""
    assert len(err.splitlines()) == 1 and "iteration limit" in err


def test_check_plan_rejects_pairs_of_non_leaves(write_tree, capsys, tmp_path):
    x = write_tree("x.json", epsilon_x())
    y = write_tree("y.json", epsilon_y(0.1))
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(
        {"pairs": [{"leaf_x": 0, "leaf_y": 0, "mass": 1.0}], "value": 1.0, "p": 1.0}))
    code, _, err = run(capsys, ["check-plan", str(plan_file), x, y])
    assert code == 2
    assert len(err.splitlines()) == 1


def test_check_plan_flags_bad_plan(write_tree, capsys, tmp_path):
    x = write_tree("x.json", epsilon_x())
    y = write_tree("y.json", epsilon_y(0.1))
    xt, yt = epsilon_x(), epsilon_y(0.1)
    # anti-adapted pairing: undercuts the distance by using future information
    pairs = []
    for lx in xt.leaves:
        sx = leaf_paths(xt)[lx][1][0]
        for ly in yt.leaves:
            if leaf_paths(yt)[ly][1][0] == sx:
                pairs.append({"leaf_x": lx, "leaf_y": ly, "mass": 0.5})
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"pairs": pairs, "value": 0.1, "p": 1.0}))
    code, out, _ = run(capsys, ["check-plan", str(plan_file), x, y])
    assert code == 0
    assert out.strip() == "not bicausal"
    # every identity test |...| > tol is false for nan, and inf passes anything
    for tol in ("nan", "inf", "-1e-9"):
        code, out, err = run(capsys, ["check-plan", str(plan_file), x, y, f"--tol-check={tol}"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tol-check")
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("edit", [
    "one mass nan", "all masses nan", "mass inf", "mass -inf",
    "p abc", "p nan", "p 0.5", "p inf", "pair twice", "leaf id abc",
    # numbers of the wrong type, as JSON text
    "json leaf_x 1.9", 'json leaf_y "2"', "json leaf_x true", 'json mass "0.5"',
    "json mass false", 'json p "2"', "json p true",
    # "pairs" not a list: an empty object or string used to read as no pairs
    "json pairs {}", 'json pairs ""', "json pairs 3",
])
def test_check_plan_rejects_malformed_plan_documents(write_tree, capsys, tmp_path, edit):
    # a NaN mass passed as bicausal: every |...| > tol comparison is false for NaN
    rng = np.random.default_rng(29)
    xt, yt = random_process(rng, 2, (1, 1), 3), random_process(rng, 2, (1, 1), 3)
    x, y = write_tree("x.json", xt), write_tree("y.json", yt)
    plan_file = tmp_path / "plan.json"
    assert run(capsys, ["dist", x, y, "--plan", str(plan_file)])[0] == 0
    doc = json.loads(plan_file.read_text())
    assert len(doc["pairs"]) > 1
    field, bad = edit.rsplit(" ", 1)
    if field == "one mass":
        doc["pairs"][1]["mass"] = math.nan
    elif field == "all masses":
        for e in doc["pairs"]:
            e["mass"] = math.nan
    elif field == "mass":
        doc["pairs"][0]["mass"] = float(bad)
    elif field == "p":
        doc["p"] = bad if bad == "abc" else float(bad)
    elif field == "pair":
        doc["pairs"].append(dict(doc["pairs"][0]))
    elif field.startswith("json "):
        key = field.split()[1]
        (doc if key in ("p", "pairs") else doc["pairs"][0])[key] = json.loads(bad)
    else:
        doc["pairs"][0]["leaf_x"] = bad
    plan_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["check-plan", str(plan_file), x, y])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


def _nan_then_repeat(doc, x, y):
    doc["pairs"][1]["mass"] = math.nan
    doc["pairs"].append(dict(doc["pairs"][0]))


def _repeat_then_inf(doc, x, y):
    doc["pairs"].insert(1, dict(doc["pairs"][0]))
    doc["pairs"][-1]["mass"] = math.inf


def _repeated_non_leaves(doc, x, y):
    doc["pairs"] += [{"leaf_x": x.level(1)[0], "leaf_y": y.level(1)[0], "mass": 0.0}] * 2


def _non_leaf_y_then_x(doc, x, y):
    doc["pairs"][0]["leaf_y"] = y.level(1)[-1]
    doc["pairs"][1]["leaf_x"] = x.level(1)[-1]


def _bad_p_and_non_leaf(doc, x, y):
    doc["p"] = 0.5
    doc["pairs"][0]["leaf_x"] = x.level(1)[0]


@pytest.mark.parametrize("edit, message", [
    (_nan_then_repeat, "plan lists a non-finite mass nan for pair (2, 3)"),
    (_repeat_then_inf, "plan lists pair (2, 2) twice"),
    (_repeated_non_leaves, "plan lists pair (1, 1) twice"),
    (_non_leaf_y_then_x, "plan lists a pair with a non-leaf node 6"),
    (_bad_p_and_non_leaf, "order p must be a finite number >= 1, got 0.5"),
])
def test_check_plan_reports_the_first_fault_in_a_fixed_order(write_tree, capsys, tmp_path, edit, message):
    # the messages and their order as the per-pair reader gave them: in
    # listing order a non-finite mass or a repeated pair (leaves or not),
    # then the order p, then the first non-leaf x id, then the first y id
    rng = np.random.default_rng(29)
    xt, yt = random_process(rng, 2, (1, 1), 3), random_process(rng, 2, (1, 1), 3)
    x, y = write_tree("x.json", xt), write_tree("y.json", yt)
    plan_file = tmp_path / "plan.json"
    assert run(capsys, ["dist", x, y, "--plan", str(plan_file)])[0] == 0
    doc = json.loads(plan_file.read_text())
    edit(doc, xt, yt)
    plan_file.write_text(json.dumps(doc))
    assert run(capsys, ["check-plan", str(plan_file), x, y]) == (2, "", f"error: {message}\n")


def relabelled(proc, new_id):
    """The tree with every node id k replaced by ``new_id(k)``."""
    doc = tree_to_dict(proc)
    for node in doc["nodes"]:
        node["id"] = new_id(node["id"])
        node["parent"] = None if node["parent"] is None else new_id(node["parent"])
    return tree_from_dict(doc)


@pytest.mark.parametrize("new_id", [lambda k: 2**70 + 3 * k, lambda k: -1 - k])
def test_plans_round_trip_on_trees_with_extreme_ids(new_id):
    # the writer sorts pairs by id (negative ids reverse the leaf order) and
    # the reader finds positions among the sorted leaf ids; both keep ids exact
    rng = np.random.default_rng(31)
    x, y = (relabelled(random_process(rng, 2, (1, 1), 3), new_id) for _ in range(2))
    plan = aw_distance(x, y, 2.0)[1]
    text = _plan_json(plan)
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2)
    keys = [(e["leaf_x"], e["leaf_y"]) for e in doc["pairs"]]
    assert keys == sorted(plan.pair_masses)
    assert [e["mass"] for e in doc["pairs"]] == list(map(plan.pair_masses.__getitem__, keys))
    read = _plan_from_dict(doc, x, y)
    assert [(k, m.hex()) for k, m in read.pair_masses.items()] == \
        [(k, e["mass"].hex()) for k, e in zip(keys, doc["pairs"])]
    assert _plan_json(read).split('"value"')[0] == text.split('"value"')[0]
    assert check_bicausal(read) and math.isclose(read.value, plan.value, rel_tol=1e-12)


def test_infinite_depth_or_bad_utf8_exit_code(write_tree, capsys, tmp_path):
    x = write_tree("x.json", epsilon_x())
    doc = tree_to_dict(epsilon_x())
    doc["depth"] = math.inf
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps(doc))
    garbled = tmp_path / "garbled.json"
    garbled.write_bytes(b'{"pairs": [], "p": "\xff"}')
    for argv in (["dist", str(deep), x], ["check-plan", str(garbled), x, x]):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1


def test_costs_that_overflow_are_invalid_input(write_tree, capsys, tmp_path):
    far = write_tree("far.json", build_process([1], [(0.5, 1e200, []), (0.5, -1e200, [])]))
    near = write_tree("near.json", build_process([1], [(0.5, 0.0, []), (0.5, 1.0, [])]))
    for argv in (["dist", far, near], ["geodesic", far, near]):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: nodewise costs overflow")
        assert len(err.splitlines()) == 1


def test_python_dash_m_runs_the_command_line_tool(write_tree, capsys):
    x = write_tree("x.json", epsilon_x())
    y = write_tree("y.json", epsilon_y(0.1))
    env = dict(os.environ, PYTHONPATH=str(Path(adawass.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "adawass", "dist", x, y, "--p", "1"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1.100000000000\n", "")
    proc = subprocess.run([sys.executable, "-m", "adawass", "dist", x, x + ".missing"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2 and len(proc.stderr.splitlines()) == 1


def test_geodesic_writes_flow_and_csv(write_tree, capsys, tmp_path):
    a = write_tree("a.json", chain_process([1.0, 2.0]))
    b = write_tree("b.json", chain_process([3.0, 5.0]))
    flow_file = tmp_path / "flow.json"
    csv_file = tmp_path / "deriv.csv"
    part_file = tmp_path / "particles.csv"
    code, out, _ = run(capsys, [
        "geodesic", a, b, "--grid", "0,0.5,1",
        "--out", str(flow_file), "--csv", str(csv_file), "--particles", str(part_file),
    ])
    assert code == 0
    doc = json.loads(flow_file.read_text())
    assert doc["grid"] == [0.0, 0.5, 1.0]
    assert set(doc) >= {"base", "grid", "labels", "p"}
    base = tree_from_dict(doc["base"])
    assert base.depth == 2
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "u_lo,u_hi,metric_derivative"
    assert len(lines) == 3
    quot = float(lines[1].split(",")[2])
    assert quot == pytest.approx(math.sqrt(13))
    header = part_file.read_text().splitlines()[0]
    assert header.startswith("u,particle,time")


def test_canonical_and_equiv(write_tree, capsys, tmp_path):
    dup = build_process([1, 1], [
        (0.5, 0.0, [(0.5, -1.0, []), (0.5, 1.0, [])]),
        (0.5, 0.0, [(0.5, -1.0, []), (0.5, 1.0, [])]),
    ])
    d = write_tree("dup.json", dup)
    out_file = str(tmp_path / "can.json")
    code, out, _ = run(capsys, ["canonical", d, "--out", out_file])
    assert code == 0
    assert out.strip() == "7 -> 4 nodes"
    code, out, _ = run(capsys, ["equiv", d, out_file])
    assert code == 0
    assert out.strip() == "equivalent"
    other = write_tree("other.json", epsilon_y(0.2))
    code, out, _ = run(capsys, ["equiv", d, other])
    assert code == 0
    assert out.strip() == "not equivalent"


def test_canonical_and_equiv_with_a_tolerance(write_tree, capsys, tmp_path):
    # canonical snaps the values to the grid of mesh --tol-equiv; equiv bounds
    # AW_1 by it, and values too far apart for a float cost are not equivalent
    fan = write_tree("fan.json", build_process([1], [(0.25, v, []) for v in (0.0, 0.3, 0.9, 1.2)]))
    out_file = tmp_path / "can.json"
    code, out, _ = run(capsys, ["canonical", fan, "--tol-equiv", "1", "--out", str(out_file)])
    assert (code, out) == (0, "5 -> 3 nodes\n")
    assert tree_from_dict(json.loads(out_file.read_text())) == build_process([1], [(0.5, 0.0, []), (0.5, 1.0, [])])
    for tol, verdict in (("0.1", "not equivalent"), ("0.2", "equivalent")):   # AW_1 = 0.15
        assert run(capsys, ["equiv", fan, str(out_file), "--tol-equiv", tol]) == (0, verdict + "\n", "")
    huge, low = write_tree("huge.json", chain_process([1e308])), write_tree("low.json", chain_process([-1e308]))
    assert run(capsys, ["equiv", huge, low, "--tol-equiv", "1"]) == (0, "not equivalent\n", "")
    # finite level distances of 1e308 whose sum overflows
    huge, zero = write_tree("huge2.json", chain_process([1e308, 1e308])), write_tree("zero2.json", chain_process([0, 0]))
    assert run(capsys, ["equiv", huge, zero, "--tol-equiv", "1"]) == (0, "not equivalent\n", "")


def test_curve_energy_and_represent(write_tree, capsys, tmp_path):
    a, b = chain_process([0.0, 0.0]), chain_process([1.0, 1.0])
    curve_doc = {
        "grid": [0.0, 0.5, 1.0],
        "p": 2.0,
        "processes": [tree_to_dict(a), tree_to_dict(b), tree_to_dict(a)],
    }
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps(curve_doc))
    code, out, _ = run(capsys, ["curve-energy", str(curve_file)])
    assert code == 0
    assert float(out.strip()) == pytest.approx(8.0)
    flow_file = tmp_path / "flow.json"
    code, out, _ = run(capsys, ["represent", str(curve_file), "--out", str(flow_file)])
    assert code == 0
    assert float(out.strip()) == pytest.approx(8.0)
    assert flow_file.exists()


def test_curve_energy_p_overrides_the_documents_order_and_solves_each_interval_once(capsys, tmp_path,
                                                                                    monkeypatch):
    procs = [chain_process([0.0, 0.0]), chain_process([1.0, 3.0]), chain_process([0.5, 0.5])]
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps({"grid": [0.0, 0.25, 1.0], "p": 2.0,
                                      "processes": [tree_to_dict(proc) for proc in procs]}))
    solves, solve = [], adawass.curves.aw_distance

    def spy(x, y, p):
        solves.append(p)
        return solve(x, y, p)

    monkeypatch.setattr(adawass.curves, "aw_distance", spy)
    csv_file = tmp_path / "deriv.csv"
    code, out, _ = run(capsys, ["curve-energy", str(curve_file), "--p", "1", "--csv", str(csv_file)])
    assert solves == [1.0, 1.0]
    monkeypatch.undo()
    curve = GridCurve(grid=(0.0, 0.25, 1.0), processes=tuple(procs), p=1.0)
    assert (code, out) == (0, f"{p_energy(curve):.12f}\n")
    quotients = [float(line.split(",")[2]) for line in csv_file.read_text().splitlines()[1:]]
    assert quotients == [quot for _, quot in metric_derivative(curve)]


def test_curve_energy_exits_3_on_processes_of_different_shapes(capsys, tmp_path):
    # GridCurve checks its processes with the library's one shape rule
    curve_doc = {"grid": [0.0, 1.0], "p": 2.0,
                 "processes": [tree_to_dict(chain_process([0.0, 0.0])), tree_to_dict(chain_process([1.0]))]}
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps(curve_doc))
    code, out, err = run(capsys, ["curve-energy", str(curve_file)])
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "shape mismatch: depth 2/1, dims (1, 1)/(1,)" in err


def test_skorokhod_command(write_tree, capsys, tmp_path):
    seq_dir = tmp_path / "seq"
    seq_dir.mkdir()
    for n in range(1, 5):
        (seq_dir / f"{n:02d}.json").write_text(
            json.dumps(tree_to_dict(chain_process([1.0 / n, 1.0 / n])))
        )
    limit = write_tree("limit.json", chain_process([0.0, 0.0]))
    code, out, _ = run(capsys, ["skorokhod", str(seq_dir), limit])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n u_n aw_to_target"
    assert len(lines) == 6
    for line in lines[1:]:
        assert float(line.split()[2]) <= 1e-9


def test_quantize_command(capsys, tmp_path):
    rng = np.random.default_rng(3)
    samples = {"samples": [[[float(v)], [float(v + 1)]] for v in rng.normal(size=40)]}
    sfile = tmp_path / "samples.json"
    sfile.write_text(json.dumps(samples))
    out_file = tmp_path / "tree.json"
    code, out, _ = run(capsys, ["quantize", str(sfile), "--branching", "2,2",
                                "--seed", "5", "--out", str(out_file)])
    assert code == 0
    assert "scenarios" in out
    doc = json.loads(out_file.read_text())
    proc = tree_from_dict(doc)
    assert proc.depth == 2


def test_quantize_rejects_non_finite_samples(capsys, tmp_path):
    samples = [[[0.0], [1.0]], [[math.nan], [2.0]], [[1.0], [3.0]]]
    with pytest.raises(ValueError, match="finite"):
        quantize_paths(samples, [2, 2])
    # JSON's NaN and Infinity literals, as Python's json module reads them,
    # and steps without values
    docs = ['{"samples": [[[0.0], [1.0]], [[%s], [2.0]], [[1.0], [3.0]]]}' % bad
            for bad in ("NaN", "Infinity", "-Infinity")]
    for doc in docs + ['{"samples": [[[], []], [[], []]]}']:
        sfile = tmp_path / "samples.json"
        sfile.write_text(doc)
        code, out, err = run(capsys, ["quantize", str(sfile), "--branching", "2,2"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("samples, message", [
    ([[0.0, 1.0], [1.0]], "sample paths have unequal depth"),
    ([[0.0, 1.0], [1.0, [1.0, 2.0]]], "sample paths have unequal step dimensions"),
    ([[]], "sample paths must have at least one step"),
])
def test_quantize_unequal_samples_are_invalid_input(capsys, tmp_path, samples, message):
    sfile = tmp_path / "samples.json"
    sfile.write_text(json.dumps({"samples": samples}))
    code, out, err = run(capsys, ["quantize", str(sfile), "--branching", "2,2"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_quantize_overflow_is_invalid_input(capsys, tmp_path):
    samples = [[[1e308], [0.0]], [[-1e308], [1.0]], [[1e308], [2.0]], [[-1e308], [3.0]]]
    with pytest.raises(OverflowError):
        quantize_paths(samples, [2, 2])
    sfile = tmp_path / "samples.json"
    sfile.write_text(json.dumps({"samples": samples}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # a numpy RuntimeWarning fails the test
        code, out, err = run(capsys, ["quantize", str(sfile), "--branching", "2,2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_outputs_do_not_depend_on_the_node_listing(capsys, tmp_path):
    # one pair of trees, each written with its nodes listed depth-first (the
    # build order), breadth-first and leaves first; siblings keep their order
    rng = np.random.default_rng(41)
    trees = [random_process(rng, 3, (1, 2, 1), 3) for _ in range(2)]
    listings = {
        "depth-first": lambda nodes: nodes,
        "breadth-first": lambda nodes: sorted(nodes, key=lambda n: n["time"]),
        "leaves-first": lambda nodes: sorted(nodes, key=lambda n: -n["time"]),
    }
    results = {}
    for name, order in listings.items():
        paths = []
        for k, proc in enumerate(trees):
            doc = tree_to_dict(proc)
            doc["nodes"] = order(doc["nodes"])
            paths.append(tmp_path / f"{name}-{k}.json")
            paths[-1].write_text(json.dumps(doc))
        x, y = map(str, paths)
        out = {f: tmp_path / f"{name}-{f}" for f in ("plan.json", "flow.json", "particles.csv",
                                                     "canonical.json")}
        runs = [["dist", x, y, "--plan", str(out["plan.json"])],
                ["geodesic", x, y, "--dyadic", "1", "--out", str(out["flow.json"]),
                 "--particles", str(out["particles.csv"])],
                ["canonical", x, "--out", str(out["canonical.json"])]]
        stdout = []
        for argv in runs:
            code, printed, _ = run(capsys, argv)
            assert code == 0
            stdout.append(printed)
        results[name] = (stdout, {f: path.read_bytes() for f, path in out.items()})
    assert results["breadth-first"] == results["depth-first"]
    assert results["leaves-first"] == results["depth-first"]


def test_commands_are_byte_deterministic(write_tree, capsys, tmp_path):
    rng = np.random.default_rng(31)
    x = write_tree("x.json", random_process(rng, 2, (1, 1), 2))
    y = write_tree("y.json", random_process(rng, 2, (1, 1), 2))
    outputs = []
    for run_idx in range(2):
        flow_file = tmp_path / f"flow{run_idx}.json"
        code, out, _ = run(capsys, ["geodesic", x, y, "--grid", "0,0.25,0.5,0.75,1",
                                    "--out", str(flow_file)])
        assert code == 0
        outputs.append((out, flow_file.read_bytes()))
    assert outputs[0] == outputs[1]


def test_successive_dist_plan_runs_write_identical_files(write_tree, capsys, tmp_path):
    # general nodewise problems, and values rounded to integers so that
    # siblings tie and the value order falls back to tree order
    rng = np.random.default_rng(37)
    x, y = (random_process(rng, 3, (1, 2, 1), 5) for _ in range(2))
    ties = process_with_values(y, {n.id: np.round(n.value).tolist() for n in y.nodes if n.value})
    for a, b in ((x, y), (x, ties)):
        xp, yp = write_tree("x.json", a), write_tree("y.json", b)
        files = [tmp_path / f"plan{k}.json" for k in range(2)]
        outs = [run(capsys, ["dist", xp, yp, "--plan", str(f)]) for f in files]
        assert outs[0] == outs[1] and outs[0][0] == 0
        assert files[0].read_bytes() == files[1].read_bytes()


def test_flow_round_trip_values(write_tree, capsys, tmp_path):
    # serialized labels re-parse to the original floats exactly
    x = write_tree("x.json", epsilon_x())
    y = write_tree("y.json", epsilon_y(0.1))
    flow_file = tmp_path / "flow.json"
    code, _, _ = run(capsys, ["geodesic", x, y, "--grid", "0,0.5,1", "--out", str(flow_file)])
    assert code == 0
    doc = json.loads(flow_file.read_text())
    from adawass import geodesic

    flow = geodesic(epsilon_x(), epsilon_y(0.1), 2.0, (0.0, 0.5, 1.0))
    for nid, per_u in doc["labels"].items():
        for idx, vec in per_u.items():
            assert tuple(vec) == flow.labels[int(idx)][int(nid)]


def chain_document(steps):
    """A chain of ``steps`` levels as a tree document, written without recursion."""
    nodes = [{"id": 0, "parent": None, "time": 0, "value": None, "prob": 1.0}]
    nodes += [{"id": t, "parent": t - 1, "time": t, "value": [float(t)], "prob": 1.0}
              for t in range(1, steps + 1)]
    return {"depth": steps, "value_dims": [1] * steps, "nodes": nodes}


@pytest.mark.parametrize("argv, said", [(["canonical", "{x}"], "1201 -> 1201 nodes"),
                                        (["equiv", "{x}", "{x}"], "equivalent"),
                                        (["equiv", "{x}", "{x}", "--tol-equiv", "1e-9"], "equivalent")],
                         ids=["canonical", "equiv", "equiv-tol"])
def test_deep_chains_run_through_canonical_and_equiv(capsys, tmp_path, argv, said):
    # information states are built, merged, compared and written out level
    # by level without recursing, so a 1,200-step chain, past Python's
    # recursion limit, has a canonical form and an equivalence verdict
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_document(1200)))
    assert run(capsys, [a.format(x=path) for a in argv]) == (0, said + "\n", "")


def test_deep_chains_and_samples_run_through_dist_and_quantize(capsys, tmp_path, write_tree):
    # building a chain and clustering samples walk the levels without
    # recursing, so 1,200 steps, past Python's recursion limit, run through
    proc = chain_process([float(t) for t in range(1200)])
    assert validate(proc) == []
    chain = write_tree("chain.json", proc)
    assert run(capsys, ["dist", chain, chain]) == (0, "0.000000000000\n", "")
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({"samples": [[[float(t + s)] for t in range(1200)] for s in range(3)]}))
    tree = tmp_path / "tree.json"
    code, out, err = run(capsys, ["quantize", str(samples), "--branching", ",".join(["1"] * 1200),
                                  "--out", str(tree)])
    assert (code, out, err) == (0, "1 scenarios\n", "")
    proc = _load_tree(str(tree))
    assert proc.depth == 1200 and proc.layout[-1].values.tolist() == [[1200.0]]


def test_canonical_and_equiv_build_no_node_views(tmp_path, write_tree):
    # canonical forms read the layout of the loaded trees and fill the
    # columns of the result: no per-node view is built on the way
    doubled = build_process([1, 1], [(0.25, 0.0, [(0.5, -1.0, []), (0.5, 1.0, [])]),
                                     (0.75, 0.0, [(0.5, -1.0, []), (0.5, 1.0, [])])])
    base = epsilon_x()
    x, y = _load_tree(write_tree("x.json", doubled)), _load_tree(write_tree("y.json", base))
    merged = canonicalize(x)
    assert equivalent(x, y) and equivalent(x, y, tol=1e-9)
    text = _tree_json(merged)
    for tree in (x, y, merged):
        assert not {"nodes", "by_id", "children_map"} & set(vars(tree))
    assert text == _tree_json(canonicalize_by_nodes(x, 0.0))


@pytest.mark.parametrize("ids", [(2**70, 2**70 + 1, -(2**70)), (-1, -2, -3)])
def test_extreme_ids_and_signed_zeros_survive_loading_solving_and_writing(capsys, tmp_path, ids):
    # ids stay exact Python ints from the document to every output (arrays
    # in the tree store hold positions, never ids), and -0.0 is written
    # apart from 0.0
    def document(node_ids):
        root, a, b = node_ids
        return {"depth": 1, "value_dims": [1], "nodes": [
            {"id": root, "parent": None, "time": 0, "value": None, "prob": 1.0},
            {"id": a, "parent": root, "time": 1, "value": [-0.0], "prob": 0.25},
            {"id": b, "parent": root, "time": 1, "value": [0.5], "prob": 0.75}]}

    signed_zeros = tree_to_dict(build_process([1], [(0.5, 0.0, []), (0.5, -0.0, [])]))
    assert _tree_json(tree_from_dict(signed_zeros)) == json.dumps(signed_zeros, indent=2)
    y = tmp_path / "y.json"
    y.write_text(json.dumps(signed_zeros))
    outputs = {}
    for name, node_ids in (("plain", (0, 1, 2)), ("extreme", ids)):
        doc = document(node_ids)
        x = tmp_path / f"{name}.json"
        x.write_text(json.dumps(doc))
        assert _tree_json(tree_from_dict(doc)) == json.dumps(doc, indent=2)
        plan, canonical = tmp_path / f"{name}-plan.json", tmp_path / f"{name}-canonical.json"
        printed = [run(capsys, argv) for argv in (["dist", str(x), str(y), "--plan", str(plan)],
                                                  ["check-plan", str(plan), str(x), str(y)],
                                                  ["canonical", str(x), "--out", str(canonical)])]
        assert [code for code, _, _ in printed] == [0, 0, 0]
        assert plan.read_bytes() == encoded(json.loads(plan.read_text()))
        pairs = {(node_ids.index(e["leaf_x"]), e["leaf_y"]): e["mass"]
                 for e in json.loads(plan.read_text())["pairs"]}
        outputs[name] = ([out for _, out, _ in printed], canonical.read_bytes(), pairs)
    assert outputs["extreme"] == outputs["plain"]
    stdout, canonical, _ = outputs["extreme"]
    assert stdout[1:] == ["bicausal\n", "3 -> 3 nodes\n"]
    assert b"-0.0" in canonical
