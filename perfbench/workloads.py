"""Seeded inputs, requests and output checks for the adawass benchmark.

Every workload is a pool of requests generated from one
``numpy.random.default_rng(seed)``; the benchmark cycles through the pool in
order.  A request either drives the command-line tool in-process through
``adawass.cli.main`` or calls the library.  Its output is checked later,
outside the timed interval, by the request's own ``check``.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import adawass.bicausal as bicausal
import adawass.cli as cli
from adawass.curves import CommonSpaceFlow, GridCurve, flow_energy, p_energy
from adawass.trees import TreeNode, TreeProcess, tree_from_dict, tree_to_dict, validate

P = 2.0                 # order of every distance; the CLI default
REL_TOL = 1e-9          # relative agreement required of every checked value
ORACLE_BUDGET_S = 10.0  # per oracle request; passing ones take at most about 4 s (3x3)


class RequestError(RuntimeError):
    """A request ended with a nonzero exit code."""


class CheckFailed(AssertionError):
    """A request's output is wrong."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


@dataclass
class Request:
    kind: str
    call: Callable[[str], dict]     # output tag -> output record
    check: Callable[[dict], None]   # raises CheckFailed on a wrong output
    cli: bool = True


@dataclass
class Workload:
    pool: list[Request]
    cycle: int                       # requests per cycle; a trace pass is one cycle
    budget_s: float | None = None


def run_cli(*argvs: list[str]) -> list[str]:
    """Run adawass commands in-process; returns their standard outputs."""
    outs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
        if rc != 0:
            raise RequestError(f"adawass {argv[0]} exited {rc}: {err.getvalue().strip()}")
        outs.append(out.getvalue())
    return outs


# ---------------------------------------------------------------- generators


def bushy(rng: np.random.Generator, depth: int, branching: int, dim: int = 1,
          dyadic: bool = False) -> TreeProcess:
    """The bushy family: every node has ``branching`` children.

    Nodes are numbered breadth-first.  For each parent in that order the
    generator draws ``uniform(0.1, 1, branching)`` edge weights, normalizes
    them, then draws ``normal(size=(branching, dim))`` child values.  With
    ``dyadic`` the probabilities are rounded to multiples of 2**-40 (the last
    child takes the remainder), so that sums of their halves and quarters
    are exact.
    """
    nodes = [TreeNode(id=0, parent=None, time=0, value=None, prob=1.0)]
    parents = [0]
    for t in range(1, depth + 1):
        level = []
        for pid in parents:
            w = rng.uniform(0.1, 1.0, size=branching)
            w = w / w.sum()
            if dyadic:
                w = np.round(w * 2.0**40) / 2.0**40
                w[-1] = 1.0 - w[:-1].sum()
            vals = rng.normal(size=(branching, dim))
            for k in range(branching):
                nid = len(nodes)
                nodes.append(TreeNode(id=nid, parent=pid, time=t,
                                      value=tuple(float(v) for v in vals[k]), prob=float(w[k])))
                level.append(nid)
        parents = level
    return TreeProcess(depth=depth, value_dims=(dim,) * depth, nodes=tuple(nodes))


def redundant(proc: TreeProcess) -> TreeProcess:
    """Equivalent tree in which child k of every node appears as 2 copies
    (k even) or 4 copies (k odd), each with a copy's share of the
    probability; emitted depth-first."""
    nodes = [TreeNode(id=0, parent=None, time=0, value=None, prob=1.0)]

    def emit(src: int, dst: int) -> None:
        for k, child in enumerate(proc.children(src)):
            node = proc.node(child)
            copies = 2 if k % 2 == 0 else 4
            for _ in range(copies):
                nid = len(nodes)
                nodes.append(TreeNode(id=nid, parent=dst, time=node.time,
                                      value=node.value, prob=node.prob / copies))
                emit(child, nid)

    emit(proc.root_id, 0)
    return TreeProcess(depth=proc.depth, value_dims=proc.value_dims, nodes=tuple(nodes))


def shifted_leaf(proc: TreeProcess) -> TreeProcess:
    """The same tree with the value of its last leaf moved by 0.5."""
    last = proc.leaves[-1]
    nodes = tuple(
        TreeNode(id=n.id, parent=n.parent, time=n.time,
                 value=tuple(v + 0.5 for v in n.value), prob=n.prob) if n.id == last else n
        for n in proc.nodes
    )
    return TreeProcess(depth=proc.depth, value_dims=proc.value_dims, nodes=nodes)


def write_tree(path: Path, proc: TreeProcess) -> str:
    path.write_text(json.dumps(tree_to_dict(proc)), encoding="utf-8")
    return str(path)


def _read_json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------- dist-bushy

DIST_SHAPES = {"3x4": (3, 4, 1), "3x4-2d": (3, 4, 2), "4x3": (4, 3, 1),
               "2x10": (2, 10, 1), "3x5": (3, 5, 1), "8x2": (8, 2, 1)}
# The median and the tail (11th largest) must fall inside a group of similar
# latency, not on a boundary between groups: 4x3 and 2x10 make two thirds of
# the requests, and a 30 s run (four or five cycles) has at most ten of the
# slow 3x5 and 8x2.
DIST_CYCLE = ("3x4", "4x3", "2x10", "4x3", "3x5", "2x10", "4x3", "3x4-2d", "2x10",
              "4x3", "2x10", "8x2", "3x4", "4x3", "2x10", "4x3", "3x4", "2x10")


def _dist_request(work: Path, i: int, kind: str, x: TreeProcess, y: TreeProcess,
                  reference: float | None) -> Request:
    xp, yp = write_tree(work / f"d{i}-x.json", x), write_tree(work / f"d{i}-y.json", y)

    def call(tag: str) -> dict:
        plan = str(work / f"{tag}-plan.json")
        return {"stdout": run_cli(["dist", xp, yp, "--plan", plan],
                                  ["check-plan", plan, xp, yp]),
                "files": [plan]}

    def check(out: dict) -> None:
        printed = float(out["stdout"][0])
        expect(out["stdout"][1].strip() == "bicausal", f"check-plan said {out['stdout'][1]!r}")
        data = _read_json(out["files"][0])
        masses = {(int(e["leaf_x"]), int(e["leaf_y"])): float(e["mass"]) for e in data["pairs"]}
        plan = bicausal.BicausalPlan.from_pair_masses(x, y, P, masses)
        expect(bicausal.check_bicausal(plan), "plan fails check_bicausal")
        expect(close(plan.value, printed), f"plan cost^(1/p) {plan.value!r} != printed {printed!r}")
        if reference is not None:
            expect(close(printed, reference), f"value {printed!r} != pinned {reference!r}")

    return Request(kind=f"dist {kind}", call=call, check=check)


def build_dist(rng, work: Path, cycle=DIST_CYCLE, shapes=DIST_SHAPES, cycles: int = 4,
               references: list[float] | None = None) -> Workload:
    pool = []
    for i, kind in enumerate(cycle * cycles):
        d, b, dim = shapes[kind]
        x, y = bushy(rng, d, b, dim), bushy(rng, d, b, dim)
        ref = references[i] if references is not None else None
        pool.append(_dist_request(work, i, kind, x, y, ref))
    return Workload(pool, len(cycle))


# ---------------------------------------------------------------- flow-chain

FLOW_SHAPES = {"curve-3x2": (3, 2), "geo-3x4": (3, 4), "geo-4x3": (4, 3)}
# Represent on curves of five 3x2 trees (about 2k product leaves, 1 MB of
# flow JSON) makes most requests.  A 30 s run measures whole cycles, three
# or four at this speed, so its six or eight geodesics stay below the ten
# requests that the tail percentile leaves beyond it, and the median and the
# tail both fall inside the represent group.
FLOW_CYCLE = ("curve-3x2",) * 20 + ("geo-3x4",) + ("curve-3x2",) * 20 + ("geo-4x3",)
CURVE_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
GEO_DYADIC = 3


def _parse_flow(data: dict) -> CommonSpaceFlow:
    grid = tuple(float(u) for u in data["grid"])
    labels = tuple(
        {int(nid): tuple(float(v) for v in per[str(i)]) for nid, per in data["labels"].items()}
        for i in range(len(grid))
    )
    return CommonSpaceFlow(base=tree_from_dict(data["base"]), grid=grid, labels=labels,
                           p=float(data["p"]))


def _represent_request(work: Path, i: int, kind: str, procs: list[TreeProcess]) -> Request:
    path = work / f"c{i}.json"
    path.write_text(json.dumps({"grid": list(CURVE_GRID), "p": P,
                                "processes": [tree_to_dict(t) for t in procs]}), encoding="utf-8")
    ref: list[float] = []

    def call(tag: str) -> dict:
        flow = str(work / f"{tag}-flow.json")
        return {"stdout": run_cli(["represent", str(path), "--out", flow]), "files": [flow]}

    def check(out: dict) -> None:
        if not ref:
            ref.append(p_energy(GridCurve(grid=CURVE_GRID, processes=tuple(procs), p=P)))
        printed = float(out["stdout"][0])
        expect(close(printed, ref[0]), f"flow energy {printed!r} != curve p-energy {ref[0]!r}")
        data = _read_json(out["files"][0])
        expect(data["grid"] == list(CURVE_GRID), "flow grid differs from the curve grid")
        expect(len(data["labels"]) == len(data["base"]["nodes"]) - 1,
               "flow labels do not cover every non-root node")
        expect(all(len(per) == len(CURVE_GRID) for per in data["labels"].values()),
               "a flow label misses a grid point")

    return Request(kind=f"represent {kind}", call=call, check=check)


def _geodesic_request(work: Path, i: int, kind: str, x: TreeProcess, y: TreeProcess) -> Request:
    xp, yp = write_tree(work / f"g{i}-x.json", x), write_tree(work / f"g{i}-y.json", y)
    ref: list[float] = []

    def call(tag: str) -> dict:
        flow, particles = str(work / f"{tag}-geo.json"), str(work / f"{tag}-particles.csv")
        return {"stdout": run_cli(["geodesic", xp, yp, "--dyadic", str(GEO_DYADIC),
                                   "--out", flow, "--particles", particles]),
                "files": [flow, particles]}

    def check(out: dict) -> None:
        if not ref:
            ref.append(bicausal.aw_distance(x, y, P)[0])
        printed = float(out["stdout"][0])
        expect(close(printed, ref[0]), f"printed distance {printed!r} != {ref[0]!r}")
        flow = _parse_flow(_read_json(out["files"][0]))
        energy = flow_energy(flow, P)
        expect(close(energy, ref[0] ** P), f"flow energy {energy!r} != d^p {ref[0] ** P!r}")
        with open(out["files"][1], newline="", encoding="utf-8") as fh:
            rows = sum(1 for _ in csv.reader(fh))
        expected = 1 + len(flow.grid) * len(flow.base.leaves) * flow.base.depth
        expect(rows == expected, f"particles CSV has {rows} rows, expected {expected}")

    return Request(kind=f"geodesic {kind}", call=call, check=check)


def build_flow(rng, work: Path, cycle=FLOW_CYCLE, shapes=FLOW_SHAPES, cycles: int = 3) -> Workload:
    pool = []
    for i, kind in enumerate(cycle * cycles):
        d, b = shapes[kind]
        if kind.startswith("curve"):
            procs = [bushy(rng, d, b) for _ in CURVE_GRID]
            pool.append(_represent_request(work, i, kind, procs))
        else:
            x, y = bushy(rng, d, b), bushy(rng, d, b)
            pool.append(_geodesic_request(work, i, kind, x, y))
    return Workload(pool, len(cycle))


# ------------------------------------------------------------ oracle-xcheck

ORACLE_SHAPES = {"2x4": (2, 4), "2x5": (2, 5), "3x2": (3, 2), "3x3": (3, 3)}
# Not a listed workload: the oracle returns wrong values at every size tried
# (its known defect; see README.md), so it cannot run without failures.
ORACLE_CYCLE = ("2x4", "3x2", "2x5", "3x3")


def _oracle_request(kind: str, x: TreeProcess, y: TreeProcess) -> Request:
    def call(tag: str) -> dict:
        lp_value, _ = bicausal.aw_distance_lp(x, y, P)
        value, _ = bicausal.aw_distance(x, y, P)
        return {"values": (lp_value, value)}

    def check(out: dict) -> None:
        lp_value, value = out["values"]
        expect(close(lp_value, value), f"oracle {lp_value!r} != induction {value!r}")

    return Request(kind=f"oracle {kind}", call=call, check=check, cli=False)


def build_oracle(rng, work: Path, cycle=ORACLE_CYCLE, shapes=ORACLE_SHAPES,
                 cycles: int = 16) -> Workload:
    pool = []
    for kind in cycle * cycles:
        d, b = shapes[kind]
        x, y = bushy(rng, d, b), bushy(rng, d, b)
        pool.append(_oracle_request(kind, x, y))
    return Workload(pool, len(cycle), budget_s=ORACLE_BUDGET_S)


# -------------------------------------------------------------- canon-equiv

CANON_SHAPES = {"3x4": (3, 4), "4x3": (4, 3), "3x7": (3, 7)}   # 1885, 4681, 8421 nodes redundant
CANON_KINDS = ("canonical", "equiv", "equiv-tol", "differ", "differ-tol")
CANON_TOL = "1e-9"


def _canon_requests(work: Path, i: int, shape: str, base: TreeProcess) -> list[Request]:
    red = redundant(base)
    rp = write_tree(work / f"k{i}-redundant.json", red)
    bp = write_tree(work / f"k{i}-base.json", base)
    sp = write_tree(work / f"k{i}-shifted.json", shifted_leaf(base))
    expected_line = f"{len(red.nodes)} -> {len(base.nodes)} nodes"

    def canonical_call(tag: str) -> dict:
        out = str(work / f"{tag}-canonical.json")
        return {"stdout": run_cli(["canonical", rp, "--out", out]), "files": [out]}

    def canonical_check(out: dict) -> None:
        expect(out["stdout"][0].strip() == expected_line,
               f"canonical said {out['stdout'][0].strip()!r}, expected {expected_line!r}")
        merged = tree_from_dict(_read_json(out["files"][0]))
        expect(len(merged.nodes) == len(base.nodes), "canonical tree has the wrong size")
        expect(not validate(merged), "canonical tree is invalid")

    def equiv(kind: str, other: str, tol: bool, verdict: str) -> Request:
        argv = ["equiv", rp, other] + (["--tol-equiv", CANON_TOL] if tol else [])

        def call(tag: str) -> dict:
            return {"stdout": run_cli(argv), "files": []}

        def check(out: dict) -> None:
            said = out["stdout"][0].strip()
            expect(said == verdict, f"equiv said {said!r}, expected {verdict!r}")

        return Request(kind=f"{kind} {shape}", call=call, check=check)

    by_kind = {
        "canonical": Request(kind=f"canonical {shape}", call=canonical_call, check=canonical_check),
        "equiv": equiv("equiv", bp, False, "equivalent"),
        "equiv-tol": equiv("equiv-tol", bp, True, "equivalent"),
        "differ": equiv("differ", sp, False, "not equivalent"),
        "differ-tol": equiv("differ-tol", sp, True, "not equivalent"),
    }
    return [by_kind[k] for k in CANON_KINDS]


def build_canon(rng, work: Path, shapes=CANON_SHAPES, cycles: int = 2) -> Workload:
    pool = []
    for c in range(cycles):
        for j, (shape, (d, b)) in enumerate(shapes.items()):
            base = bushy(rng, d, b, dyadic=True)
            pool.extend(_canon_requests(work, c * len(shapes) + j, shape, base))
    return Workload(pool, len(shapes) * len(CANON_KINDS))


# ------------------------------------------------------------------ registry

def build(name: str, seed: int, work: Path, references: list[float] | None = None) -> Workload:
    """The named workload, generated from ``default_rng(seed)`` into ``work``."""
    rng = np.random.default_rng(seed)
    if name == "dist-bushy":
        return build_dist(rng, work, references=references)
    if name == "flow-chain":
        return build_flow(rng, work)
    if name == "oracle-xcheck":
        return build_oracle(rng, work)
    if name == "canon-equiv":
        return build_canon(rng, work)
    raise ValueError(f"unknown workload {name!r}")


def build_warmup(name: str, work: Path) -> Workload:
    """A miniature of the workload: the same commands on 2x2 trees."""
    rng = np.random.default_rng(0)
    if name == "dist-bushy":
        return build_dist(rng, work, cycle=("tiny",), shapes={"tiny": (2, 2, 1)}, cycles=1)
    if name == "flow-chain":
        return build_flow(rng, work, cycle=("curve-tiny", "geo-tiny"),
                          shapes={"curve-tiny": (2, 2), "geo-tiny": (2, 2)}, cycles=1)
    if name == "canon-equiv":
        return build_canon(rng, work, shapes={"tiny": (2, 2)}, cycles=1)
    return build_oracle(rng, work, cycle=("tiny",), shapes={"tiny": (2, 2)}, cycles=1)
