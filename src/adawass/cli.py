"""Command-line surface: file formats, configuration, plot-data emission.

Exit codes: 0 success, 2 unreadable or invalid input (including values so
far apart that their costs overflow), 3 shape mismatch, 4 size guard
tripped, 5 internal solver failure.  All commands are deterministic; --seed
only affects ``quantize``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

from .bicausal import (
    CAUSALITY_TOL,
    MAX_PRODUCT_LEAVES,
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
    _particle_levels,
    dyadic_grid,
    flow_energy,
    geodesic,
    metric_derivative,
    p_energy,
    represent_curve,
    skorokhod,
)
from .discrete_ot import InfeasibleError, SolverError, UnboundedError
from .trees import (  # noqa: F401  (tree_to_dict: perfbench/tracer.py wraps it here)
    ShapeMismatchError,
    TreeProcess,
    _float_field,
    _float_fields,
    _int_fields,
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
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
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


def _fmt(value: float) -> str:
    return f"{value:.12f}"


# Every document is written from templates, byte for byte what
# ``json.dumps(..., indent=2)`` writes: with ``indent`` set, ``json`` falls
# back to its pure-Python encoder, which costs more than building a flow or
# solving a plan of a few thousand pairs.


def _numbers(values: list) -> list[str]:
    """The JSON text of every number, from one pass of ``json``'s C encoder
    (one number per line, since no number contains a newline).

    Ints stay ints, floats go through ``float.__repr__`` (``repr`` of an
    ``np.float64`` differs) and ``None`` is ``null``, as ``json.dumps``
    writes them.
    """
    if not values:
        return []
    return json.dumps(values, separators=("\n", ":"))[1:-1].split("\n")


def _block(items: list[str], indent: int, brackets: str = "[]") -> str:
    """Encoded items as a JSON list (or object) opening on a line indented by
    ``indent`` spaces, laid out as ``indent=2`` lays it out."""
    if not items:
        return brackets
    pad = "\n" + " " * (indent + 2)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * indent + brackets[1]


_NODE_ROW = ('{\n      "id": %s,\n      "parent": %s,\n      "time": %s,\n'
             '      "value": %s,\n      "prob": %s\n    }')


def _tree_json(proc: TreeProcess) -> str:
    """The tree document of ``tree_to_dict``: {"depth", "value_dims", "nodes"}."""
    nodes = proc.nodes
    head = _numbers([x for n in nodes for x in (n.id, n.parent, n.time, n.prob)])
    flat = iter(_numbers([v for n in nodes if n.value is not None for v in n.value]))
    rows = [
        _NODE_ROW % (nid, parent, time,
                     "null" if n.value is None else _block([next(flat) for _ in n.value], 6),
                     prob)
        for n, nid, parent, time, prob in zip(nodes, head[0::4], head[1::4], head[2::4], head[3::4])
    ]
    return ('{\n  "depth": %s,\n  "value_dims": %s,\n  "nodes": %s\n}'
            % (json.dumps(proc.depth), _block(_numbers(list(proc.value_dims)), 2), _block(rows, 2)))


def _labels_row(dims: tuple[int, ...]) -> str:
    """Template of one node's entry in a flow's "labels": its key, then one
    list per grid index with ``dims[i]`` numbers."""
    per_u = ",\n".join(f'      "{i}": ' + _block(["%s"] * d, 6) for i, d in enumerate(dims))
    return '"%s": {\n' + per_u + "\n    }"


def _flow_json(flow: CommonSpaceFlow) -> str:
    """The flow document {"base", "grid", "p", "interpolation", "labels"}.

    "labels" maps every non-root node, in ``flow.labels[0]`` order, to its
    label at each grid index.
    """
    grid = range(len(flow.grid))
    per_node = [[flow.labels[i][nid] for i in grid] for nid in flow.labels[0]]
    flat = _numbers([v for vecs in per_node for vec in vecs for v in vec])
    templates: dict[tuple[int, ...], str] = {}
    rows, pos = [], 0
    for nid, vecs in zip(flow.labels[0], per_node):
        dims = tuple(map(len, vecs))
        if dims not in templates:
            templates[dims] = _labels_row(dims)
        end = pos + sum(dims)
        rows.append(templates[dims] % (nid, *flat[pos:end]))
        pos = end
    return ('{\n  "base": %s,\n  "grid": %s,\n  "p": %s,\n  "interpolation": %s,\n'
            '  "labels": %s\n}'
            % (_tree_json(flow.base).replace("\n", "\n  "), _block(_numbers(list(flow.grid)), 2),
               json.dumps(flow.p), json.dumps(flow.interpolation), _block(rows, 2, "{}")))


_PAIR_ROW = '{\n      "leaf_x": %d,\n      "leaf_y": %d,\n      "mass": %s\n    }'


def _plan_json(plan: BicausalPlan) -> str:
    """The plan document {"pairs": [{"leaf_x", "leaf_y", "mass"}, ...], "value", "p"}.

    Masses go through ``float.__repr__`` as ``json`` writes floats.
    """
    rows = [_PAIR_ROW % (k, l, float.__repr__(m)) for (k, l), m in sorted(plan.pair_masses.items())]
    return (f'{{\n  "pairs": {_block(rows, 2)},\n  "value": {json.dumps(plan.value)},\n'
            f'  "p": {json.dumps(plan.p)}\n}}')


def _plan_from_dict(data: dict, x: TreeProcess, y: TreeProcess) -> BicausalPlan:
    """The plan of a plan document; a bad ``p``, a non-finite mass or a pair
    listed twice is an input error."""
    try:
        p = _float_field(data["p"])
        rows = data["pairs"]
        pairs = list(zip(zip(_int_fields([e["leaf_x"] for e in rows]),
                             _int_fields([e["leaf_y"] for e in rows])),
                         _float_fields([e["mass"] for e in rows])))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed plan document: {exc}") from exc
    if not 1.0 <= p < math.inf:
        raise InputError(f"plan p must be a finite order >= 1, got {p}")
    masses: dict[tuple[int, int], float] = {}
    for pair, mass in pairs:
        if not math.isfinite(mass):
            raise InputError(f"plan lists a non-finite mass {mass} for pair {pair}")
        if pair in masses:
            raise InputError(f"plan lists pair {pair} twice")
        masses[pair] = mass
    try:
        return BicausalPlan.from_pair_masses(x, y, p, masses)
    except ShapeMismatchError:
        raise
    except ValueError as exc:
        raise InputError(f"malformed plan document: {exc}") from exc


def _curve_from_dict(data: dict) -> GridCurve:
    try:
        grid = tuple(_float_field(u) for u in data["grid"])
        p = _float_field(data.get("p", 2.0))
        procs = tuple(tree_from_dict(t) for t in data["processes"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    """Reject a bad ``--p``, ``--grid``, ``--dyadic``, ``--max-leaves``,
    ``--tol-equiv``, ``--tol-check``, ``--weights`` or ``--branching`` before
    any command runs; parses the grid, the weights and the branching factors."""
    p = getattr(args, "p", None)
    if p is not None and not 1.0 <= p < math.inf:
        raise InputError(f"--p must be a finite order >= 1, got {p}")
    for option in ("tol_equiv", "tol_check"):
        tol = getattr(args, option, None)
        if tol is not None and not 0.0 <= tol < math.inf:
            name = "--" + option.replace("_", "-")
            raise InputError(f"{name} must be a finite tolerance >= 0, got {tol}")
    for option, least in (("dyadic", 0), ("max_leaves", 1)):
        value = getattr(args, option, None)
        if value is not None and value < least:
            raise InputError(f"--{option.replace('_', '-')} must be an integer >= {least}, got {value}")
    if getattr(args, "grid", None) is not None:
        try:
            args.grid = _check_grid([float(u) for u in args.grid.split(",")])
        except ValueError as exc:
            raise InputError(f"--grid {args.grid}: {exc}") from exc
    for option, convert in (("weights", float), ("branching", int)):
        text = getattr(args, option, None)
        if text is not None:
            try:
                setattr(args, option, [convert(v) for v in text.split(",")])
            except ValueError as exc:
                raise InputError(f"--{option} {text}: {exc}") from exc


def _write_derivative_csv(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u_lo", "u_hi", "metric_derivative"])
        for (lo, hi), quot in rows:
            writer.writerow([repr(lo), repr(hi), repr(quot)])


def _write_particles_csv(path: str, flow: CommonSpaceFlow) -> None:
    """One row per grid point, particle (leaf) and time: the particle's label."""
    levels = _particle_levels(flow)
    leaves = flow.base.leaves
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        dim = max(len(v) for v in flow.labels[0].values())
        writer.writerow(["u", "particle", "time", *[f"x{i}" for i in range(dim)]])
        for i, u in enumerate(flow.grid):
            steps = [[list(map(repr, vec)) for vec in labels[i][anc].tolist()]
                     for labels, anc in levels]
            writer.writerows([repr(u), leaf, t, *steps[t - 1][j]]
                             for j, leaf in enumerate(leaves) for t in range(1, len(levels) + 1))


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
        _write_text(args.out, _flow_json(flow))
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
    _write_text(args.out, _flow_json(flow))
    print(_fmt(flow_energy(flow, curve.p)))
    return EXIT_OK


def cmd_skorokhod(args) -> int:
    files = sorted(Path(args.seq_dir).glob("*.json"))
    if not files:
        raise InputError(f"{args.seq_dir}: no .json process files found")
    seq = [_load_tree(str(f)) for f in files]
    limit = _load_tree(args.limit)
    try:
        flow = skorokhod(seq, limit, args.p, weights=args.weights, max_leaves=args.max_leaves)
    except ShapeMismatchError:
        raise
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.out:
        _write_text(args.out, _flow_json(flow))
    print("n u_n aw_to_target")
    for n, u in enumerate(flow.grid):
        dist, _ = aw_distance(flow.process_at(n), flow.targets[n], args.p)
        print(f"{n} {u!r} {_fmt(dist)}")
    return EXIT_OK


def cmd_canonical(args) -> int:
    proc = _load_tree(args.x)
    merged = canonicalize(proc, tol=args.tol_equiv)
    if args.out:
        _write_text(args.out, _tree_json(merged))
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
        samples = [[list(map(_float_field, step)) if isinstance(step, list)
                     else [_float_field(step)] for step in path] for path in data["samples"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed samples document: {exc}") from exc
    try:
        proc = quantize_paths(samples, args.branching, seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _write_text(args.out, _tree_json(proc))
    print(f"{len(proc.leaves)} scenarios")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each ``parse_args`` returns a
    fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="adawass",
        description="Adapted optimal transport on scenario trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, max_leaves=False):
        sp.add_argument("--p", type=float, default=2.0, help="order of the distance")
        if max_leaves:
            sp.add_argument("--max-leaves", type=int, default=MAX_PRODUCT_LEAVES,
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
    sp.add_argument("--tol-check", type=float, default=CAUSALITY_TOL)
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
    sp.add_argument("--max-leaves", type=int, default=MAX_PRODUCT_LEAVES)
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
    args = _build_parser().parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except (InputError, OverflowError) as exc:
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
