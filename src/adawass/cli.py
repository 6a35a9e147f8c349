"""Command-line surface: file formats, configuration, plot-data emission.

Exit codes: 0 success, 2 unreadable or invalid input (any other
``ValueError``, including values so far apart that their costs overflow,
and documents nested too deeply to parse) or an unwritable output path,
3 shape mismatch, 4 size guard tripped (a product tree over --max-leaves),
5 internal solver failure.  All commands are deterministic; --seed only
affects ``quantize``.  ``--tol-equiv`` is the mesh of the value grid for
``canonical`` and the bound on AW_1 for ``equiv`` (0, the default: exact).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bicausal import (
    CAUSALITY_TOL,
    MAX_PRODUCT_LEAVES,
    BicausalPlan,
    SizeGuardError,
    _leaf_positions,
    _LeafMasses,
    aw_distance,
    check_bicausal,
)
from .canonical import canonicalize, equivalent
from .curves import (
    CommonSpaceFlow,
    GridCurve,
    _check_grid,
    _particle_levels,
    _riemann_sum,
    dyadic_grid,
    flow_energy,
    geodesic,
    metric_derivative,
    represent_curve,
    skorokhod,
)
from .discrete_ot import InfeasibleError, SolverError, UnboundedError
from .trees import (  # noqa: F401  (tree_to_dict: perfbench/tracer.py wraps it here)
    ShapeMismatchError,
    TreeProcess,
    _check_order,
    _check_shapes,
    _check_tolerance,
    _float_field,
    _float_fields,
    _int_array,
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


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8; nested too deeply
        raise ValueError(f"{path}: {exc}") from exc


def _load_tree(path: str) -> TreeProcess:
    proc = tree_from_dict(_load_json(path))
    problems = validate(proc)
    if problems:
        raise ValueError(f"{path}: invalid tree: " + "; ".join(problems))
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
# solving a plan of a few thousand pairs.  A section with one row per node
# joins the rows' cached templates and fills them with one ``%``.


def _encode(values: list) -> list[str]:
    """The JSON text of every number, from one pass of ``json``'s C encoder
    (one number per line, since no number contains a newline).

    Ints stay ints, floats go through ``float.__repr__`` (``repr`` of an
    ``np.float64`` differs) and ``None`` is ``null``, as ``json.dumps``
    writes them.
    """
    if not values:
        return []
    return json.dumps(values, separators=("\n", ":"))[1:-1].split("\n")


def _reprs(values: list) -> list[str]:
    """``repr`` of every float, as the particles CSV writes numbers."""
    return list(map(repr, values))


def _float_texts(values: np.ndarray, encode=_encode) -> np.ndarray:
    """``encode`` of every entry of a float array, as an object array of the
    same shape: each distinct bit pattern is formatted once (the int64 view
    keeps -0.0 apart from 0.0)."""
    bits = np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(encode(distinct.view(float).tolist()), dtype=object)
    return texts[inverse.reshape(-1)].reshape(np.shape(values))


def _numbers(column: np.ndarray) -> list[str]:
    """``_encode`` of a column of numbers: a float array through
    ``_float_texts``, an object array (ints among the numbers) through ``json``."""
    if column.dtype == object:
        return _encode(column.tolist())
    return _float_texts(column).tolist()


def _block(items: list[str], indent: int, brackets: str = "[]") -> str:
    """Encoded items as a JSON list (or object) opening on a line indented by
    ``indent`` spaces, laid out as ``indent=2`` lays it out."""
    if not items:
        return brackets
    pad = "\n" + " " * (indent + 2)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * indent + brackets[1]


@functools.cache
def _node_row(dim: int) -> str:
    """Template of one entry of a tree's "nodes" whose value has ``dim``
    numbers (-1: no value): id, parent, time, the numbers, prob."""
    value = "null" if dim < 0 else _block(["%s"] * dim, 6)
    return ('{\n      "id": %s,\n      "parent": %s,\n      "time": %s,\n'
            f'      "value": {value},\n      "prob": %s\n    }}')


def _tree_json(proc: TreeProcess) -> str:
    """The tree document of ``tree_to_dict``: {"depth", "value_dims", "nodes"},
    written from the tree's columns."""
    ids, parents, times, probs, values, sizes = proc.columns
    # one row of cells per node: id, parent, time, up to the largest number of
    # values, then prob; the cells used, row after row, are the % arguments
    width = np.maximum(sizes, 0)
    cells = np.empty((len(ids), width.max() + 4), dtype=object)
    used = np.arange(cells.shape[1]) < width[:, None] + 3
    used[:, -1] = True
    cells[:, :3] = np.array(_encode(list(ids + parents + times)), dtype=object).reshape(3, -1).T
    cells[:, -1] = _numbers(probs)
    cells[:, 3:-1][used[:, 3:-1]] = _numbers(values)
    rows = _block(list(map(_node_row, sizes.tolist())), 2) % tuple(cells[used].tolist())
    return ('{\n  "depth": %s,\n  "value_dims": %s,\n  "nodes": %s\n}'
            % (json.dumps(proc.depth), _block(_encode(list(proc.value_dims)), 2), rows))


@functools.cache
def _labels_row(grid: int, dim: int) -> str:
    """Template of one node's entry in a flow's "labels": its key, then one
    list of ``dim`` numbers per grid index."""
    per_u = ",\n".join(f'      "{i}": ' + _block(["%s"] * dim, 6) for i in range(grid))
    return '"%s": {\n' + per_u + "\n    }"


def _flow_json(flow: CommonSpaceFlow) -> str:
    """The flow document {"base", "grid", "p", "interpolation", "labels"}.

    "labels" maps every non-root node, in ``flow.labels[0]`` order (the
    base tree's layout), to its label at each grid index.
    """
    templates, args = [], []
    for ids, per_u in zip(flow.labels[0].ids, zip(*(lab.levels for lab in flow.labels))):
        # one row per node of the level: its id, then its labels at every grid index
        texts = _float_texts(np.stack(per_u, axis=1).reshape(len(ids), -1))
        args += np.column_stack([np.array(ids, dtype=object), texts]).reshape(-1).tolist()
        templates += [_labels_row(len(per_u), per_u[0].shape[1])] * len(ids)
    labels = _block(templates, 2, "{}") % tuple(args)
    return ('{\n  "base": %s,\n  "grid": %s,\n  "p": %s,\n  "interpolation": %s,\n'
            '  "labels": %s\n}'
            % (_tree_json(flow.base).replace("\n", "\n  "), _block(_float_texts(np.array(flow.grid)).tolist(), 2),
               json.dumps(flow.p), json.dumps(flow.interpolation), labels))


# ``%r`` writes a mass as ``float.__repr__`` does, as ``json`` writes floats
_PAIR_ROW = '{\n      "leaf_x": %d,\n      "leaf_y": %d,\n      "mass": %r\n    }'


def _plan_json(plan: BicausalPlan) -> str:
    """The plan document {"pairs": [{"leaf_x", "leaf_y", "mass"}, ...], "value", "p"}.

    Pairs are sorted by (x leaf id, y leaf id), through each leaf's rank
    among its tree's leaf ids (ids may exceed int64), and fill one template.
    """
    (i, j), mass = plan.pair_masses.leaf, plan.pair_masses.mass
    rank_x, rank_y = (np.argsort(np.argsort(_int_array(proc.leaves), kind="stable"))
                      for proc in (plan.x, plan.y))
    order = np.lexsort((rank_y[j], rank_x[i]))
    cells = [None] * (3 * order.size)
    cells[0::3] = map(plan.x.leaves.__getitem__, i[order].tolist())
    cells[1::3] = map(plan.y.leaves.__getitem__, j[order].tolist())
    cells[2::3] = mass[order].tolist()
    rows = _block([_PAIR_ROW] * order.size, 2) % tuple(cells)
    return (f'{{\n  "pairs": {rows},\n  "value": {json.dumps(plan.value)},\n'
            f'  "p": {json.dumps(plan.p)}\n}}')


def _plan_from_dict(data: dict, x: TreeProcess, y: TreeProcess) -> BicausalPlan:
    """The plan of a plan document, its pairs read as columns.

    Faults are reported in this order: a malformed document; then, in
    listing order, a non-finite mass or a pair listed twice (leaves or
    not); then a bad ``p``, the trees' shapes, and a non-leaf x id, then
    a non-leaf y id, each the first listed.
    """
    try:
        p = _float_field(data["p"])
        rows = data["pairs"]
        if not isinstance(rows, list):
            raise TypeError(f"expected a list of pairs, got {type(rows).__name__}")
        ids = [_int_fields([e["leaf_x"] for e in rows]), _int_fields([e["leaf_y"] for e in rows])]
        masses = _float_fields([e["mass"] for e in rows])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed plan document: {exc}") from exc
    mass, xs, ys = np.array(masses, dtype=float), _int_array(ids[0]), _int_array(ids[1])
    # the first entry with a non-finite mass, and the first that repeats an
    # earlier pair: the stable sort keeps each run of equal pairs in listing order
    order = np.lexsort((ys, xs))
    later, earlier = order[1:], order[:-1]
    repeats = later[(xs[later] == xs[earlier]) & (ys[later] == ys[earlier])]
    nonfinite, repeated = (int(a.min(initial=len(rows))) for a in (np.flatnonzero(~np.isfinite(mass)), repeats))
    if nonfinite < len(rows) and nonfinite <= repeated:
        raise ValueError(f"plan lists a non-finite mass {masses[nonfinite]} "
                         f"for pair {(ids[0][nonfinite], ids[1][nonfinite])}")
    if repeated < len(rows):
        raise ValueError(f"plan lists pair {(ids[0][repeated], ids[1][repeated])} twice")
    _check_order(p)
    _check_shapes(x, y)
    return BicausalPlan.from_pair_masses(x, y, p, _LeafMasses((x, y), _leaf_positions((x, y), (xs, ys)), mass))


def _curve_from_dict(data: dict) -> GridCurve:
    try:
        grid = tuple(_float_field(u) for u in data["grid"])
        p = _float_field(data.get("p", 2.0))
        procs = tuple(tree_from_dict(t) for t in data["processes"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed curve document: {exc}") from exc
    for i, proc in enumerate(procs):
        problems = validate(proc)
        if problems:
            raise ValueError(f"curve process {i} invalid: " + "; ".join(problems))
    return GridCurve(grid=grid, processes=procs, p=p)


def _check_options(args) -> None:
    """Reject a bad ``--p``, ``--grid``, ``--dyadic``, ``--max-leaves``,
    ``--tol-equiv``, ``--tol-check``, ``--weights`` or ``--branching`` before
    any command runs; builds the grid, parses the weights and the branching factors."""
    p = getattr(args, "p", None)
    if p is not None and not 1.0 <= p < math.inf:
        raise ValueError(f"--p must be a finite order >= 1, got {p}")
    for option in ("tol_equiv", "tol_check"):
        tol = getattr(args, option, None)
        if tol is not None:
            _check_tolerance(tol, "--" + option.replace("_", "-"))
    if getattr(args, "max_leaves", None) is not None and args.max_leaves < 1:
        raise ValueError(f"--max-leaves must be an integer >= 1, got {args.max_leaves}")
    if hasattr(args, "grid"):   # geodesic: the grid from --grid or else from --dyadic
        option, text = ("--grid", args.grid) if args.grid is not None else ("--dyadic", args.dyadic)
        try:
            args.grid = (dyadic_grid(text) if option == "--dyadic"
                         else _check_grid([float(u) for u in text.split(",")]))
        except ValueError as exc:
            raise ValueError(f"{option} {text}: {exc}") from exc
    for option, convert in (("weights", float), ("branching", int)):
        text = getattr(args, option, None)
        if text is not None:
            try:
                setattr(args, option, [convert(v) for v in text.split(",")])
            except ValueError as exc:
                raise ValueError(f"--{option} {text}: {exc}") from exc


def _write_derivative_csv(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u_lo", "u_hi", "metric_derivative"])
        for (lo, hi), quot in rows:
            writer.writerow([repr(lo), repr(hi), repr(quot)])


def _write_particles_csv(path: str, flow: CommonSpaceFlow) -> None:
    """One row per grid point, particle (leaf) and time: the particle's label.

    Written as ``csv.writer`` writes these rows (no number needs quoting),
    numbers as ``repr`` gives them, from one row template per grid point.
    """
    levels = _particle_levels(flow)
    dims = [labels.shape[2] for labels, _ in levels]
    leaves = flow.base.leaves
    # per grid point, one row of cells per particle: u, particle, time and
    # the label for every time in turn
    cells = np.empty((len(flow.grid), len(leaves), sum(dims) + 3 * len(dims)), dtype=object)
    grid = np.array(_reprs(list(flow.grid)), dtype=object)[:, None]
    col = 0
    for t, (labels, anc) in enumerate(levels, start=1):
        cells[:, :, col] = grid
        cells[:, :, col + 1] = leaves
        cells[:, :, col + 2] = t
        cells[:, :, col + 3:col + 3 + labels.shape[2]] = _float_texts(labels, _reprs)[:, anc]
        col += 3 + labels.shape[2]
    rows = "".join(",".join(["%s"] * (3 + d)) + "\r\n" for d in dims) * len(leaves)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["u", "particle", "time", *[f"x{i}" for i in range(max(dims))]]) + "\r\n")
        for per_u in cells:
            fh.write(rows % tuple(per_u.reshape(-1).tolist()))


def cmd_dist(args) -> int:
    x = _load_tree(args.x)
    y = _load_tree(args.y)
    value, plan = aw_distance(x, y, args.p)
    if args.plan:
        _write_text(args.plan, _plan_json(plan))
    print(_fmt(value))
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
    flow = geodesic(x, y, args.p, args.grid, max_leaves=args.max_leaves)
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
    quotients = metric_derivative(curve)
    energy = _riemann_sum(quotients, curve.p)
    if args.csv:
        _write_derivative_csv(args.csv, quotients)
    print(_fmt(energy))
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
        raise ValueError(f"{args.seq_dir}: no .json process files found")
    seq = [_load_tree(str(f)) for f in files]
    limit = _load_tree(args.limit)
    flow = skorokhod(seq, limit, args.p, weights=args.weights, max_leaves=args.max_leaves)
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
    print(f"{len(proc.columns.ids)} -> {len(merged.columns.ids)} nodes")
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
        raise ValueError(f"malformed samples document: {exc}") from exc
    proc = quantize_paths(samples, args.branching, seed=args.seed)
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
    sp.add_argument("--tol-equiv", type=float, default=0.0, help="mesh of the value grid (0: exact)")
    sp.add_argument("--out", help="write the merged tree to this file")
    sp.set_defaults(func=cmd_canonical)

    sp = sub.add_parser("equiv", help="test equivalence of two trees")
    sp.add_argument("x"), sp.add_argument("y")
    sp.add_argument("--tol-equiv", type=float, default=0.0, help="bound on AW_1 (0: exact)")
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
    # ShapeMismatchError, InfeasibleError and UnboundedError are ValueErrors,
    # so they are caught before the input errors
    try:
        _check_options(args)
        return args.func(args)
    except ShapeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (SolverError, InfeasibleError, UnboundedError) as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OverflowError, OSError) as exc:   # OSError: an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
