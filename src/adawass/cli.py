"""Command-line surface: file formats, configuration, plot-data emission.

Exit codes: 0 success, 2 unreadable or invalid input, 3 shape mismatch,
4 size guard tripped, 5 internal solver failure.  All commands are
deterministic; --seed only affects ``quantize``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .bicausal import (
    BicausalPlan,
    SizeGuardError,
    aw_distance,
    check_bicausal,
)
from .canonical import canonicalize, equivalent
from .curves import (
    CommonSpaceFlow,
    GridCurve,
    _check_grid,
    dyadic_grid,
    flow_energy,
    geodesic,
    metric_derivative,
    p_energy,
    represent_curve,
    skorokhod,
)
from .discrete_ot import InfeasibleError, SolverError, UnboundedError
from .trees import (
    ShapeMismatchError,
    TreeProcess,
    quantize_paths,
    tree_from_dict,
    tree_to_dict,
    validate,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SHAPE = 3
EXIT_SIZE = 4
EXIT_SOLVER = 5


class InputError(ValueError):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load_tree(path: str) -> TreeProcess:
    try:
        proc = tree_from_dict(_load_json(path))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    problems = validate(proc)
    if problems:
        raise InputError(f"{path}: invalid tree: " + "; ".join(problems))
    return proc


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        print(text)
    else:
        Path(path).write_text(text + "\n", encoding="utf-8")


def _dump_json(path: str | None, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2))


def _fmt(value: float) -> str:
    return f"{value:.12f}"


_PAIR_ROW = '    {\n      "leaf_x": %d,\n      "leaf_y": %d,\n      "mass": %s\n    }'


def _plan_json(plan: BicausalPlan) -> str:
    """The plan document {"pairs": [{"leaf_x", "leaf_y", "mass"}, ...], "value", "p"}.

    The text is what ``json.dumps(..., indent=2)`` writes, byte for byte, but
    the pairs rows come from a template: with ``indent`` set, ``json`` falls
    back to its pure-Python encoder, which costs more than solving a plan
    of a few thousand pairs.  Masses go through ``float.__repr__`` as
    ``json`` writes floats (``repr`` of an ``np.float64`` differs).
    """
    rows = ",\n".join([
        _PAIR_ROW % (k, l, float.__repr__(m)) for (k, l), m in sorted(plan.pair_masses.items())
    ])
    pairs = f"[\n{rows}\n  ]" if rows else "[]"
    return (f'{{\n  "pairs": {pairs},\n  "value": {json.dumps(plan.value)},\n'
            f'  "p": {json.dumps(plan.p)}\n}}')


def _plan_from_dict(data: dict, x: TreeProcess, y: TreeProcess) -> BicausalPlan:
    try:
        p = float(data["p"])
        masses = {
            (int(e["leaf_x"]), int(e["leaf_y"])): float(e["mass"]) for e in data["pairs"]
        }
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed plan document: {exc}") from exc
    try:
        return BicausalPlan.from_pair_masses(x, y, p, masses)
    except ShapeMismatchError:
        raise
    except ValueError as exc:
        raise InputError(f"malformed plan document: {exc}") from exc


def _flow_to_dict(flow: CommonSpaceFlow) -> dict:
    labels = {
        str(nid): {str(i): list(flow.labels[i][nid]) for i in range(len(flow.grid))}
        for nid in flow.labels[0]
    }
    return {
        "base": tree_to_dict(flow.base),
        "grid": list(flow.grid),
        "p": flow.p,
        "interpolation": flow.interpolation,
        "labels": labels,
    }


def _curve_from_dict(data: dict) -> GridCurve:
    try:
        grid = tuple(float(u) for u in data["grid"])
        p = float(data.get("p", 2.0))
        procs = tuple(tree_from_dict(t) for t in data["processes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed curve document: {exc}") from exc
    for i, proc in enumerate(procs):
        problems = validate(proc)
        if problems:
            raise InputError(f"curve process {i} invalid: " + "; ".join(problems))
    if not 1.0 <= p < math.inf:
        raise InputError(f"curve p must be a finite order >= 1, got {p}")
    try:
        return GridCurve(grid=grid, processes=procs, p=p)
    except ShapeMismatchError:
        raise
    except ValueError as exc:
        raise InputError(f"malformed curve document: {exc}") from exc


def _check_options(args) -> None:
    """Reject a bad ``--p``, ``--grid``, ``--dyadic`` or ``--tol-equiv`` before any
    command runs; parses the grid."""
    p = getattr(args, "p", None)
    if p is not None and not 1.0 <= p < math.inf:
        raise InputError(f"--p must be a finite order >= 1, got {p}")
    tol = getattr(args, "tol_equiv", None)
    if tol is not None and not 0.0 <= tol < math.inf:
        raise InputError(f"--tol-equiv must be a finite tolerance >= 0, got {tol}")
    dyadic = getattr(args, "dyadic", None)
    if dyadic is not None and dyadic < 0:
        raise InputError(f"--dyadic must be a level >= 0, got {dyadic}")
    if getattr(args, "grid", None) is not None:
        try:
            args.grid = _check_grid([float(u) for u in args.grid.split(",")])
        except ValueError as exc:
            raise InputError(f"--grid {args.grid}: {exc}") from exc


def _write_derivative_csv(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u_lo", "u_hi", "metric_derivative"])
        for (lo, hi), quot in rows:
            writer.writerow([repr(lo), repr(hi), repr(quot)])


def _write_particles_csv(path: str, flow: CommonSpaceFlow) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        dim = max(len(v) for v in flow.labels[0].values())
        writer.writerow(["u", "particle", "time", *[f"x{i}" for i in range(dim)]])
        for i, u in enumerate(flow.grid):
            for leaf in flow.base.leaves:
                for t, vec in enumerate(flow.label_path(leaf, i), start=1):
                    writer.writerow([repr(u), leaf, t, *[repr(v) for v in vec]])


def cmd_dist(args) -> int:
    x = _load_tree(args.x)
    y = _load_tree(args.y)
    value, plan = aw_distance(x, y, args.p)
    print(_fmt(value))
    if args.plan:
        _write_text(args.plan, _plan_json(plan))
    return EXIT_OK


def cmd_plan(args) -> int:
    x = _load_tree(args.x)
    y = _load_tree(args.y)
    _, plan = aw_distance(x, y, args.p)
    _write_text(args.out, _plan_json(plan))
    return EXIT_OK


def cmd_check_plan(args) -> int:
    x = _load_tree(args.x)
    y = _load_tree(args.y)
    plan = _plan_from_dict(_load_json(args.plan), x, y)
    ok = check_bicausal(plan, tol=args.tol_check)
    print("bicausal" if ok else "not bicausal")
    return EXIT_OK


def cmd_geodesic(args) -> int:
    x = _load_tree(args.x)
    y = _load_tree(args.y)
    grid = args.grid if args.grid is not None else dyadic_grid(args.dyadic)
    flow = geodesic(x, y, args.p, grid, max_leaves=args.max_leaves)
    if args.out:
        _dump_json(args.out, _flow_to_dict(flow))
    if args.csv:
        curve = GridCurve(grid=flow.grid,
                          processes=tuple(flow.process_at(i) for i in range(len(flow.grid))),
                          p=args.p)
        _write_derivative_csv(args.csv, metric_derivative(curve))
    if args.particles:
        _write_particles_csv(args.particles, flow)
    print(_fmt(flow.coupling.plans[0].value))
    return EXIT_OK


def cmd_curve_energy(args) -> int:
    curve = _curve_from_dict(_load_json(args.curve))
    if args.p is not None:
        curve = GridCurve(grid=curve.grid, processes=curve.processes, p=args.p)
    print(_fmt(p_energy(curve)))
    if args.csv:
        _write_derivative_csv(args.csv, metric_derivative(curve))
    return EXIT_OK


def cmd_represent(args) -> int:
    curve = _curve_from_dict(_load_json(args.curve))
    flow = represent_curve(curve, max_leaves=args.max_leaves)
    _dump_json(args.out, _flow_to_dict(flow))
    print(_fmt(flow_energy(flow, curve.p)))
    return EXIT_OK


def cmd_skorokhod(args) -> int:
    files = sorted(Path(args.seq_dir).glob("*.json"))
    if not files:
        raise InputError(f"{args.seq_dir}: no .json process files found")
    seq = [_load_tree(str(f)) for f in files]
    limit = _load_tree(args.limit)
    weights = None
    if args.weights:
        weights = [float(w) for w in args.weights.split(",")]
    flow = skorokhod(seq, limit, args.p, weights=weights, max_leaves=args.max_leaves)
    if args.out:
        _dump_json(args.out, _flow_to_dict(flow))
    print("n u_n aw_to_target")
    for n, u in enumerate(flow.grid):
        dist, _ = aw_distance(flow.process_at(n), flow.targets[n], args.p)
        print(f"{n} {u!r} {_fmt(dist)}")
    return EXIT_OK


def cmd_canonical(args) -> int:
    proc = _load_tree(args.x)
    merged = canonicalize(proc, tol=args.tol_equiv)
    if args.out:
        _dump_json(args.out, tree_to_dict(merged))
    print(f"{len(proc.nodes)} -> {len(merged.nodes)} nodes")
    return EXIT_OK


def cmd_equiv(args) -> int:
    x = _load_tree(args.x)
    y = _load_tree(args.y)
    print("equivalent" if equivalent(x, y, tol=args.tol_equiv) else "not equivalent")
    return EXIT_OK


def cmd_quantize(args) -> int:
    data = _load_json(args.samples)
    try:
        samples = [[list(map(float, step)) if isinstance(step, list) else [float(step)]
                    for step in path] for path in data["samples"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed samples document: {exc}") from exc
    branching = [int(b) for b in args.branching.split(",")]
    try:
        proc = quantize_paths(samples, branching, seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _dump_json(args.out, tree_to_dict(proc))
    print(f"{len(proc.leaves)} scenarios")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adawass",
        description="Adapted optimal transport on scenario trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, max_leaves=False):
        sp.add_argument("--p", type=float, default=2.0, help="order of the distance")
        if max_leaves:
            sp.add_argument("--max-leaves", type=int, default=100_000,
                            help="size guard on the product tree")

    sp = sub.add_parser("dist", help="adapted Wasserstein distance between two trees")
    sp.add_argument("x"), sp.add_argument("y")
    add_common(sp)
    sp.add_argument("--plan", help="write the optimal bicausal plan to this file")
    sp.set_defaults(func=cmd_dist)

    sp = sub.add_parser("plan", help="write the optimal bicausal plan")
    sp.add_argument("x"), sp.add_argument("y")
    add_common(sp)
    sp.add_argument("--out", help="output file (stdout when omitted)")
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("check-plan", help="verify the bicausality of a stored plan")
    sp.add_argument("plan"), sp.add_argument("x"), sp.add_argument("y")
    sp.add_argument("--tol-check", type=float, default=1e-9)
    sp.set_defaults(func=cmd_check_plan)

    sp = sub.add_parser("geodesic", help="displacement interpolation between two trees")
    sp.add_argument("x"), sp.add_argument("y")
    add_common(sp, max_leaves=True)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--grid", help="comma-separated grid points from 0 to 1")
    group.add_argument("--dyadic", type=int, default=2, help="dyadic grid level")
    sp.add_argument("--out", help="flow JSON output")
    sp.add_argument("--csv", help="CSV of per-interval metric derivatives")
    sp.add_argument("--particles", help="CSV of per-particle positions")
    sp.set_defaults(func=cmd_geodesic)

    sp = sub.add_parser("curve-energy", help="p-energy of a grid curve")
    sp.add_argument("curve")
    sp.add_argument("--p", type=float, default=None, help="override the curve's order")
    sp.add_argument("--csv", help="CSV of per-interval metric derivatives")
    sp.set_defaults(func=cmd_curve_energy)

    sp = sub.add_parser("represent", help="common-space flow for a grid curve")
    sp.add_argument("curve")
    sp.add_argument("--out", required=True)
    sp.add_argument("--max-leaves", type=int, default=100_000)
    sp.set_defaults(func=cmd_represent)

    sp = sub.add_parser("skorokhod", help="common-space representation of a sequence")
    sp.add_argument("seq_dir", help="directory of process JSON files, sorted by name")
    sp.add_argument("limit")
    add_common(sp, max_leaves=True)
    sp.add_argument("--weights", help="comma-separated grid spacings summing to 1")
    sp.add_argument("--out", help="flow JSON output")
    sp.set_defaults(func=cmd_skorokhod)

    sp = sub.add_parser("canonical", help="minimal representative of a tree")
    sp.add_argument("x")
    sp.add_argument("--tol-equiv", type=float, default=0.0)
    sp.add_argument("--out", help="write the merged tree to this file")
    sp.set_defaults(func=cmd_canonical)

    sp = sub.add_parser("equiv", help="test equivalence of two trees")
    sp.add_argument("x"), sp.add_argument("y")
    sp.add_argument("--tol-equiv", type=float, default=0.0)
    sp.set_defaults(func=cmd_equiv)

    sp = sub.add_parser("quantize", help="scenario tree from sample paths")
    sp.add_argument("samples", help='JSON file {"samples": [[[x...], ...], ...]}')
    sp.add_argument("--branching", required=True, help="comma-separated factors per level")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="tree JSON output (stdout when omitted)")
    sp.set_defaults(func=cmd_quantize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ShapeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (SolverError, InfeasibleError, UnboundedError) as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
