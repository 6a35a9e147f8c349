"""The benchmark's pinned dist-bushy values, recomputed by the library, and
the library attributes that the benchmark's tracer wraps.

``perfbench/reference.json`` pins the seed-0 ``dist`` values that every
benchmark run checks; a solver change that moved them would make every
benchmark run fail.  This test regenerates the whole pool (four request
cycles) with the benchmark's own generator and checks the values and plans.
"""

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
