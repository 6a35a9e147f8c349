"""The benchmark's pinned dist-bushy values, recomputed by the library, and
the library attributes that the benchmark's tracer wraps.

``perfbench/reference.json`` pins the seed-0 ``dist`` values that every
benchmark run checks; a solver change that moved them would make every
benchmark run fail.  This test regenerates the whole pool (four request
cycles) with the benchmark's own generator and checks the values and plans.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from adawass import aw_distance, check_bicausal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(filename: str):
    """Yield a ``perfbench/`` file loaded as a module, then unload it."""
    spec = importlib.util.spec_from_file_location("perfbench_" + filename[:-3], PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses resolve their module here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    yield from load("workloads.py")


@pytest.fixture(scope="module")
def tracer():
    yield from load("tracer.py")


def test_dist_bushy_pool_matches_pinned_values(workloads):
    pinned = json.loads((PERFBENCH / "reference.json").read_text())["dist-bushy"]
    rng = np.random.default_rng(pinned["seed"])
    pool = workloads.DIST_CYCLE * 4
    assert len(pool) == len(pinned["values"])
    for i, kind in enumerate(pool):
        depth, branching, dim = workloads.DIST_SHAPES[kind]
        x = workloads.bushy(rng, depth, branching, dim)
        y = workloads.bushy(rng, depth, branching, dim)
        value, plan = aw_distance(x, y, pinned["p"])
        assert workloads.close(value, pinned["values"][i], rel=1e-12), (i, kind, value)
        assert check_bicausal(plan), (i, kind)


def test_tracer_targets_exist(tracer):
    # a traced run wraps these module attributes, and fails if one is gone
    assert tracer.TARGETS
    for module_name, attr, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_flow_chain_requests_pass_the_benchmark_checks(workloads, tmp_path):
    # seed-0 flow-chain requests through the workload's own call and check;
    # the geodesic check rebuilds the flow from the document's plain dicts
    # (_parse_flow) and computes its energy
    pool = workloads.build("flow-chain", 0, tmp_path).pool
    geodesics = [i for i, req in enumerate(pool) if req.kind.startswith("geodesic")]
    for i in [0, 1] + geodesics[:2]:
        pool[i].check(pool[i].call(f"r{i}"))


def test_dist_bushy_requests_pass_the_benchmark_checks(workloads, tmp_path):
    # seed-0 dist-bushy requests through the workload's own call and check:
    # dist --plan, then the timed check-plan, which must print "bicausal"
    pinned = json.loads((PERFBENCH / "reference.json").read_text())["dist-bushy"]
    pool = workloads.build("dist-bushy", pinned["seed"], tmp_path, references=pinned["values"]).pool
    for kind in ("3x4", "3x4-2d", "8x2"):
        i = next(i for i, req in enumerate(pool) if req.kind == f"dist {kind}")
        pool[i].check(pool[i].call(f"r{i}"))


def test_canon_equiv_requests_pass_the_benchmark_checks(workloads, tmp_path):
    # seed-0 canon-equiv requests through the workload's own call and check:
    # canonical (its line and its written tree), equiv with a tolerance, and
    # equiv on trees that differ in one leaf
    pool = workloads.build("canon-equiv", 0, tmp_path).pool
    for kind in ("canonical", "equiv-tol", "differ"):
        i = next(i for i, req in enumerate(pool) if req.kind.split()[0] == kind)
        pool[i].check(pool[i].call(f"r{i}"))


# Every seed-0 canon-equiv request's line and, for canonical, the sha256 of
# the document it writes, as the tuple-based canonical forms produced them.
CANON_EQUIV_PINS = [
    ("canonical 3x4", "1885 -> 85 nodes", "ee28857cf8445ee785d642d76f99f63c46a69fc448ee96861786932859c5f750"),
    ("equiv 3x4", "equivalent", None),
    ("equiv-tol 3x4", "equivalent", None),
    ("differ 3x4", "not equivalent", None),
    ("differ-tol 3x4", "not equivalent", None),
    ("canonical 4x3", "4681 -> 121 nodes", "fb805c354ab8a19e4ac5f0e42517ced0831b2cdadc7ddc9377569aa041a6d96a"),
    ("equiv 4x3", "equivalent", None),
    ("equiv-tol 4x3", "equivalent", None),
    ("differ 4x3", "not equivalent", None),
    ("differ-tol 4x3", "not equivalent", None),
    ("canonical 3x7", "8421 -> 400 nodes", "47010f24d5d30846fa17aaefbe917675fac540cc72be9f615c967ca4f0f81687"),
    ("equiv 3x7", "equivalent", None),
    ("equiv-tol 3x7", "equivalent", None),
    ("differ 3x7", "not equivalent", None),
    ("differ-tol 3x7", "not equivalent", None),
    ("canonical 3x4", "1885 -> 85 nodes", "db3d37c6875ea9b23da94b7ae1502608000ddaf2a6d9d9ab8f0d9f8508903768"),
    ("equiv 3x4", "equivalent", None),
    ("equiv-tol 3x4", "equivalent", None),
    ("differ 3x4", "not equivalent", None),
    ("differ-tol 3x4", "not equivalent", None),
    ("canonical 4x3", "4681 -> 121 nodes", "fd16a1c38a78de61f0fe0292325c0045cf7b40d937a394f0e7e24fcda252b733"),
    ("equiv 4x3", "equivalent", None),
    ("equiv-tol 4x3", "equivalent", None),
    ("differ 4x3", "not equivalent", None),
    ("differ-tol 4x3", "not equivalent", None),
    ("canonical 3x7", "8421 -> 400 nodes", "83c15f99b020aeb82207bae5edfb555ebcff3c0593ad0fa7b5037bbf380e5678"),
    ("equiv 3x7", "equivalent", None),
    ("equiv-tol 3x7", "equivalent", None),
    ("differ 3x7", "not equivalent", None),
    ("differ-tol 3x7", "not equivalent", None),
]


def test_canon_equiv_outputs_match_the_pinned_bytes(workloads, tmp_path):
    pool = workloads.build("canon-equiv", 0, tmp_path).pool
    got = []
    for i, req in enumerate(pool):
        out = req.call(f"r{i}")
        digests = [hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in out["files"]]
        got.append((req.kind, out["stdout"][0].strip(), digests[0] if digests else None))
    assert got == CANON_EQUIV_PINS
