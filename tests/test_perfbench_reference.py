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


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_canon_equiv_outputs_match_the_pinned_bytes(workloads, tmp_path):
    pool = workloads.build("canon-equiv", 0, tmp_path).pool
    got = []
    for i, req in enumerate(pool):
        out = req.call(f"r{i}")
        digests = list(map(sha256, out["files"]))
        got.append((req.kind, out["stdout"][0].strip(), digests[0] if digests else None))
    assert got == CANON_EQUIV_PINS


# One seed-0 dist-bushy cycle: each request's two lines (dist, check-plan)
# and the sha256 of the plan document it writes, as the tuple-keyed plans
# produced them.
DIST_BUSHY_PINS = [
    ('dist 3x4', ('1.623762081333', 'bicausal'), 'c6c0e149f60ab2e90f52f8ec6bdc76356cce2f0a5a3abbc39fe6f45b3c64c1d8'),
    ('dist 4x3', ('2.016990221418', 'bicausal'), '3eecaafd172a78315284f535caa614fdf672e85b12efa69bd780b6b3c9e29805'),
    ('dist 2x10', ('0.735960057355', 'bicausal'), 'ce3baf271bb15b2abfa3602b2559c28525a15063c34140a442c56126a233b10a'),
    ('dist 4x3', ('1.711783170553', 'bicausal'), '264753d17fa98d79f02f034b0c3edb3428b66e3cc371636451697b61e65cf1ba'),
    ('dist 3x5', ('1.260520481899', 'bicausal'), '3a93b0a0f1bb07868430d70b3589800bf8a6e8b94e5edba0282c49a51c4f7812'),
    ('dist 2x10', ('1.005372526259', 'bicausal'), '118ad758e1c523e06a3a9d9d8a53aeea02de7c7501f1844e5349faf80e7405cd'),
    ('dist 4x3', ('2.123455996491', 'bicausal'), 'bc583523775dc82df664b46c884011cff15bb95764a66c702459f00a73185544'),
    ('dist 3x4-2d', ('2.585314322996', 'bicausal'), '36a5a7a9d21baa74e764d54c6390d021350c9ab9741b9eb6486b0e04700d6a99'),
    ('dist 2x10', ('0.903608192010', 'bicausal'), '7230a7255b7056c4c3788611beb9cbd9dfd421960fb4a3ed7908ddf7ebedcaf9'),
    ('dist 4x3', ('1.947434907771', 'bicausal'), 'af7d8f7cfccf859c6a65e531a06ad97db2aa50ab8289a7e91b27438827d1f924'),
    ('dist 2x10', ('1.312931505029', 'bicausal'), 'b59dabcebc92c9c8744d092b0e9a3b2ea8e10d93f8e2a809d5747d55df17ffd8'),
    ('dist 8x2', ('3.141762114184', 'bicausal'), '29040a61e9d9802694c92205dba93e084602348d07b6ef80ff7161773ac9918e'),
    ('dist 3x4', ('1.799288115895', 'bicausal'), 'd95b5f5cce384eeb88bf5f3cdafee9182bc152a07c991b8a81f9302e73293f44'),
    ('dist 4x3', ('2.313216799189', 'bicausal'), '320fad0ec6213167b7de87fb3cdeeac76a84da73228fbee180401d9e33302bea'),
    ('dist 2x10', ('1.075499681998', 'bicausal'), 'b8982d78baf195e66692b7607ac9014fb395645239ba0938780aae6b86ebbb7a'),
    ('dist 4x3', ('1.986740917473', 'bicausal'), '4ea7a3227479508872cee5c59743518eb6bb476e2b839908667c71c93e42c6a7'),
    ('dist 3x4', ('1.613124281526', 'bicausal'), 'a0b820a9dbb1f1ee509d4558aac7eef5bab4e81ec492efe19660fbade2f86819'),
    ('dist 2x10', ('1.185978091877', 'bicausal'), '06aab1b891256c801d790da7c7c1ab7c9d943c2f346687b4e7bc725451eef340'),
]


def test_dist_bushy_outputs_match_the_pinned_bytes(workloads, tmp_path):
    pool = workloads.build("dist-bushy", 0, tmp_path).pool
    got = []
    for i, req in enumerate(pool[:len(workloads.DIST_CYCLE)]):
        out = req.call(f"r{i}")
        got.append((req.kind, tuple(line.strip() for line in out["stdout"]), sha256(out["files"][0])))
    assert got == DIST_BUSHY_PINS


# The first two seed-0 flow-chain represent requests and both geodesic
# requests of its cycle: the printed line and the sha256 of every file
# written (the flow document, and for a geodesic the particles CSV), as the
# tuple-keyed couplings produced them.
FLOW_CHAIN_PINS = [
    ('represent curve-3x2', '68.431024207414', ('25e4bcb37675da148df2a240c5403541d74831b0f0560395c04aa8ac2d6e572b',)),
    ('represent curve-3x2', '81.559558284148', ('23d49ea619c13322867e5dfe5ae905fc82f9f5daa2877599481f615f58f7e3dd',)),
    ('geodesic geo-3x4', '1.420896749022',
     ('8b311a60179f26657c0883cb34736232b25bc921d7b04a51134ff1489a149afe',
      'eb61d61b9b130194f22f38302cbec14e8e12d4082932dc2708f3658326db9768')),
    ('geodesic geo-4x3', '2.823579014165',
     ('a2d79a3f35c956e5348e835e96c40309fedb313975645871c0e905354ded38e1',
      '15cbeedcc4a2a58ab99039ccc60b2a3cecff08912d47dcc263748c42305940ae')),
]


def test_flow_chain_outputs_match_the_pinned_bytes(workloads, tmp_path):
    pool = workloads.build("flow-chain", 0, tmp_path).pool
    geodesics = [i for i, req in enumerate(pool) if req.kind.startswith("geodesic")]
    got = []
    for i in [0, 1] + geodesics[:2]:
        out = pool[i].call(f"r{i}")
        got.append((pool[i].kind, out["stdout"][0].strip(), tuple(map(sha256, out["files"]))))
    assert got == FLOW_CHAIN_PINS
