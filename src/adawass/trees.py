"""Scenario-tree representation of finitely supported filtered processes.

A process of depth T lives on a rooted tree: the root sits at time level 0
and carries no value, every node at level t >= 1 carries a real vector of
dimension ``value_dims[t-1]`` together with the probability of reaching it
from its parent, and all leaves sit at level T.  The tree structure itself
plays the role of the filtration: what is known at time t is exactly the
node reached at level t.

A tree is stored as its node list; every computation reads one per-level
array layout of it (``TreeProcess.layout``), built on first use.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "TreeNode",
    "TreeLevel",
    "TreeProcess",
    "PathLaw",
    "ShapeMismatchError",
    "validate",
    "path_distance",
    "path_law",
    "quantize_paths",
    "chain_process",
    "build_process",
    "process_with_values",
    "tree_to_dict",
    "tree_from_dict",
]

# A node's children's edge probabilities must sum to one within this: a float
# sum of normalized weights misses one by a few 1e-16 per child, far below it,
# while a probability rounded to fewer than about 12 digits fails.
PROB_TOL = 1e-12


class ShapeMismatchError(ValueError):
    """Raised when two processes or paths disagree in depth or dimensions."""


class TreeNode(NamedTuple):
    """One entry of a tree's node list; ``zip(*proc.nodes)`` gives its five columns."""

    id: int
    parent: int | None
    time: int
    value: tuple[float, ...] | None
    prob: float


class TreeLevel(NamedTuple):
    """One level t of a tree's layout: its node ids and read-only arrays over them."""

    ids: tuple[int, ...]
    parent: np.ndarray  # position of the parent in level t - 1 (-1 at the root)
    bounds: np.ndarray  # node k's children are positions bounds[k]:bounds[k + 1] of level t + 1
    prob: np.ndarray    # edge probabilities
    values: np.ndarray  # one row per node, value_dims[t - 1] columns (none at the root)
    reach: np.ndarray   # probabilities of reaching the nodes from the root


@dataclass(frozen=True)
class TreeProcess:
    """Immutable scenario tree; all derived views are cached lazily.

    ``node`` and ``children`` read the node list; ``level``, ``leaves``,
    ``leaf_ancestors`` and ``reach_prob`` are views of ``layout``, which
    ``children``-only callers never build.
    """

    depth: int
    value_dims: tuple[int, ...]
    nodes: tuple[TreeNode, ...]

    @cached_property
    def by_id(self) -> Mapping[int, TreeNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def children_map(self) -> Mapping[int, tuple[int, ...]]:
        kids: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for nid, parent, _, _, _ in self.nodes:
            if parent in kids:
                kids[parent].append(nid)
        return {k: tuple(v) for k, v in kids.items()}

    @cached_property
    def root_id(self) -> int:
        roots = [n.id for n in self.nodes if n.parent is None]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        return roots[0]

    def children(self, node_id: int) -> tuple[int, ...]:
        return self.children_map[node_id]

    def node(self, node_id: int) -> TreeNode:
        return self.by_id[node_id]

    @cached_property
    def layout(self) -> tuple[TreeLevel, ...]:
        """The per-level arrays of the tree, t = 0..T, built on first use.

        Level t lists its nodes with each parent's children contiguous:
        parents in level t - 1 order, siblings in node-list order.
        """
        root_id = self.root_id
        ids, parents, _, values, probs = zip(*self.nodes)
        index = dict(zip(ids, range(len(ids))))
        # node-list position of every node's parent; the root's -1 reads the
        # sentinel at the end of ``pos`` below
        parent = np.fromiter(map(index.get, parents, repeat(-1)), np.intp, len(ids))
        prob = np.array(probs, dtype=float)
        members, member_parent, reach = np.array([index[root_id]]), np.full(1, -1), np.ones(1)
        pos = np.full(len(ids) + 1, -1)   # position in the current level, by node-list position
        out = []
        for t in range(self.depth + 1):
            pos[members] = np.arange(members.size)
            parent_pos = pos[parent]
            pos[members] = -1
            kids = np.flatnonzero(parent_pos >= 0)
            kids = kids[np.argsort(parent_pos[kids], kind="stable")]
            at = members.tolist()
            vals = np.fromiter(chain.from_iterable(map(values.__getitem__, at)), float) if t else ()
            level = TreeLevel(tuple(map(ids.__getitem__, at)), member_parent,
                              np.searchsorted(parent_pos[kids], np.arange(members.size + 1)),
                              prob[members], np.reshape(vals, (len(at), -1)), reach)
            for arr in level[1:]:
                arr.flags.writeable = False
            out.append(level)
            members, member_parent = kids, parent_pos[kids]
            reach = reach[member_parent] * prob[kids]
        return tuple(out)

    def level(self, t: int) -> tuple[int, ...]:
        return self.layout[t].ids

    @cached_property
    def leaves(self) -> tuple[int, ...]:
        return self.layout[-1].ids

    @cached_property
    def leaf_index(self) -> Mapping[int, int]:
        """Position of every leaf in ``leaves``."""
        return {leaf: j for j, leaf in enumerate(self.leaves)}

    @cached_property
    def reach_prob(self) -> Mapping[int, float]:
        """Probability of reaching each node from the root."""
        return {i: r for level in self.layout for i, r in zip(level.ids, level.reach.tolist())}

    @cached_property
    def leaf_ancestors(self) -> tuple[np.ndarray, ...]:
        """Per level t = 0..T, the position in ``level(t)`` of the ancestor of
        every leaf, leaves in ``leaves`` order (read-only arrays)."""
        anc = np.arange(len(self.leaves))
        out = [anc]
        for level in self.layout[:0:-1]:
            anc = level.parent[anc]
            out.append(anc)
        for arr in out:
            arr.flags.writeable = False
        return tuple(reversed(out))


@dataclass(frozen=True)
class PathLaw:
    """Finitely supported law on the path space; one atom per scenario."""

    atoms: tuple[tuple[tuple[tuple[float, ...], ...], float], ...]

    @property
    def total_mass(self) -> float:
        return sum(m for _, m in self.atoms)


def validate(proc: TreeProcess) -> list[str]:
    """Check every structural invariant; returns [] iff the tree is valid."""
    violations: list[str] = []
    roots = [n for n in proc.nodes if n.parent is None]
    if len(roots) != 1:
        violations.append(f"expected exactly one root, found {len(roots)}")
        return violations
    root = roots[0]
    if root.time != 0:
        violations.append(f"root node {root.id} is at level {root.time}, expected 0")
    if root.value is not None:
        violations.append(f"root node {root.id} carries a value")
    if len(proc.value_dims) != proc.depth:
        violations.append(
            f"value_dims has {len(proc.value_dims)} entries for depth {proc.depth}"
        )
        return violations
    if proc.depth < 1:
        violations.append(f"depth {proc.depth} < 1")
    if any(d < 1 for d in proc.value_dims):
        violations.append(f"value_dims {list(proc.value_dims)} has an entry below 1")
        return violations

    by_id = proc.by_id
    if len(by_id) != len(proc.nodes):
        violations.append("duplicate node ids")
        return violations

    for nid, parent, t, value, prob in proc.nodes:
        if parent is None:
            continue
        if parent not in by_id:
            violations.append(f"node {nid} has unknown parent {parent}")
            continue
        parent_t = by_id[parent].time
        if t != parent_t + 1:
            violations.append(f"node {nid} at level {t} under parent at level {parent_t}")
        if not math.isfinite(prob):
            violations.append(f"node {nid} has non-finite edge probability {prob}")
        elif not prob > 0.0:
            violations.append(f"node {nid} has non-positive edge probability {prob}")
        if t < 1 or t > proc.depth:
            violations.append(f"node {nid} at level {t} outside 1..{proc.depth}")
            continue
        dim = proc.value_dims[t - 1]
        if value is None or len(value) != dim:
            got = "none" if value is None else str(len(value))
            violations.append(f"node {nid} value has dim {got}, expected {dim}")
        elif not all(map(math.isfinite, value)):
            violations.append(f"node {nid} has non-finite value {value}")

    for nid, ks in proc.children_map.items():
        t = by_id[nid].time
        if t < proc.depth:
            if not ks:
                violations.append(f"node {nid} at level {t} is a leaf, expected depth {proc.depth}")
            else:
                s = sum(by_id[k].prob for k in ks)
                if abs(s - 1.0) > PROB_TOL:
                    violations.append(f"children of node {nid} have probability sum {s!r}")
        elif ks:
            violations.append(f"node {nid} at terminal level has children")
    return violations


def _check_order(p: float) -> None:
    """Reject an order that AW_p does not take: p must be a finite number >= 1."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"order p must be a finite number >= 1, got {p}")


def _check_shapes(x: TreeProcess, y: TreeProcess) -> None:
    """Reject two processes that disagree in depth or value dims."""
    if x.depth != y.depth or x.value_dims != y.value_dims:
        raise ShapeMismatchError(
            f"shape mismatch: depth {x.depth}/{y.depth}, dims {x.value_dims}/{y.value_dims}"
        )


def path_distance(x: Sequence[Sequence[float]], y: Sequence[Sequence[float]], p: float) -> float:
    """p-metric between two paths: (sum_t |x_t - y_t|_2^p)^(1/p)."""
    _check_order(p)
    if len(x) != len(y):
        raise ShapeMismatchError(f"paths have {len(x)} and {len(y)} steps")
    total = 0.0
    for xt, yt in zip(x, y):
        if len(xt) != len(yt):
            raise ShapeMismatchError(f"step dims {len(xt)} != {len(yt)}")
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(xt, yt)))
        total += d**p
    return total ** (1.0 / p)


def step_cost(a: Sequence[float], b: Sequence[float], p: float) -> float:
    """One-step contribution |a - b|_2^p of the p-metric."""
    return math.sqrt(sum((u - v) ** 2 for u, v in zip(a, b))) ** p


def path_law(proc: TreeProcess) -> PathLaw:
    """Forget the filtration: one atom per leaf, its values along the
    root-to-leaf path (one per level 1..T) with the product mass."""
    steps = [map(tuple, level.values[anc].tolist())
             for level, anc in zip(proc.layout[1:], proc.leaf_ancestors[1:])]
    return PathLaw(atoms=tuple(zip(zip(*steps), proc.layout[-1].reach.tolist())))


def chain_process(values: Sequence[Sequence[float] | float]) -> TreeProcess:
    """Deterministic process following a single path."""
    branches = []
    for v in reversed(values):
        branches = [(1.0, v, branches)]
    return build_process([len(v) if isinstance(v, (tuple, list)) else 1 for v in values], branches)


def build_process(value_dims: Sequence[int], branches) -> TreeProcess:
    """Build a process from a nested description.

    ``branches`` is a list of ``(prob, value, children)`` triples hanging off
    the root; ``children`` recursively has the same shape and is empty at the
    terminal level.  Node ids are assigned in depth-first preorder.  The one
    depth-first builder: canonical and quantized trees are built here too.
    """
    nodes = [TreeNode(id=0, parent=None, time=0, value=None, prob=1.0)]

    def visit(parent_id: int, t: int, subtrees) -> None:
        for prob, value, kids in subtrees:
            nid = len(nodes)
            vec = tuple(value) if isinstance(value, (tuple, list)) else (float(value),)
            nodes.append(TreeNode(id=nid, parent=parent_id, time=t, value=vec, prob=float(prob)))
            visit(nid, t + 1, kids)

    visit(0, 1, branches)
    return TreeProcess(depth=len(value_dims), value_dims=tuple(value_dims), nodes=tuple(nodes))


class _LevelValues(Mapping):
    """Values on the non-root nodes of a tree, kept one array per level.

    ``levels[t - 1]`` is a read-only float array with one row per node of
    ``proc.level(t)``, t = 1..T.  ``values`` is such a sequence of arrays,
    a ``_LevelValues`` over the same layout (shared, not copied), or a
    Mapping from node id to value.  As a Mapping it maps node ids to value
    tuples, keys in layout order; that dict is built on first access.
    """

    def __init__(self, proc: TreeProcess, values):
        self.ids = tuple(level.ids for level in proc.layout[1:])
        if isinstance(values, _LevelValues) and values.ids == self.ids:
            self.levels = values.levels
            return
        if isinstance(values, Mapping):
            try:
                values = [list(map(values.__getitem__, ids)) for ids in self.ids]
            except KeyError as exc:
                raise ValueError(f"no value for node {exc.args[0]!r}") from None
        if len(values) != len(self.ids):
            raise ValueError(f"{len(values)} value levels for a tree of depth {len(self.ids)}")
        levels = []
        for t, (ids, rows) in enumerate(zip(self.ids, values), start=1):
            arr = np.array(rows, dtype=float)
            if arr.ndim != 2 or len(arr) != len(ids):
                raise ValueError(f"level {t} values have shape {arr.shape}, "
                                 f"expected one row per each of its {len(ids)} nodes")
            arr.flags.writeable = False
            levels.append(arr)
        self.levels = tuple(levels)

    @cached_property
    def _by_id(self) -> dict[int, tuple[float, ...]]:
        rows = chain.from_iterable(map(tuple, arr.tolist()) for arr in self.levels)
        return dict(zip(chain.from_iterable(self.ids), rows))

    def __getitem__(self, node_id: int) -> tuple[float, ...]:
        return self._by_id[node_id]

    def __iter__(self):
        return iter(self._by_id)

    def __len__(self) -> int:
        return sum(map(len, self.ids))


def process_with_values(proc: TreeProcess, values) -> TreeProcess:
    """Same tree and probabilities, a new value labelling.

    ``values`` maps every non-root node id to its value, or holds one array
    per level t = 1..T with a row per node of ``proc.level(t)`` (see
    ``_LevelValues``); the value dims are those of the new values.  The new
    tree keeps the node order, ids, parents and probabilities, and takes
    over ``proc``'s layout with the value arrays swapped in.
    """
    new = _LevelValues(proc, values)
    layout = proc.layout
    value = dict(zip(chain.from_iterable(level.ids for level in layout),
                     chain([None], *(map(tuple, arr.tolist()) for arr in new.levels))))
    ids, parents, times, _, probs = zip(*proc.nodes)
    out = TreeProcess(depth=proc.depth, value_dims=tuple(arr.shape[1] for arr in new.levels),
                      nodes=tuple(map(TreeNode, ids, parents, times, map(value.__getitem__, ids), probs)))
    # a cached_property lives in the instance dict
    vars(out)["layout"] = layout[:1] + tuple(
        level._replace(values=arr) for level, arr in zip(layout[1:], new.levels))
    return out


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Plain Lloyd iterations with rng-seeded init; returns cluster labels."""
    uniq = np.unique(points, axis=0)
    k = min(k, len(uniq))
    if k == len(uniq):
        centers = uniq.astype(float)
    else:
        idx = rng.choice(len(uniq), size=k, replace=False)
        centers = uniq[np.sort(idx)].astype(float)
    labels = np.zeros(len(points), dtype=int)
    for _ in range(50):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if (new_labels == labels).all() and _ > 0:
            break
        labels = new_labels
        for j in range(k):
            members = points[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return labels


def quantize_paths(samples: Sequence[Sequence[Sequence[float] | float]],
                   branching: Sequence[int], seed: int = 0) -> TreeProcess:
    """Empirical scenario tree by per-level clustering of sample-path prefixes.

    Samples sharing a node at level t-1 are clustered on their step-t values
    into at most ``branching[t-1]`` groups; each non-empty group becomes a
    child carrying the group centroid and the empirical frequency.
    Deterministic for a fixed seed.
    """
    if not samples:
        raise ValueError("no sample paths given")
    depth = len(samples[0])
    if len(branching) != depth:
        raise ValueError(f"branching has {len(branching)} entries for depth {depth}")
    if any(b < 1 for b in branching):
        raise ValueError("branching factors must be >= 1")
    paths = []
    for s in samples:
        if len(s) != depth:
            raise ValueError("sample paths have unequal depth")
        paths.append([np.atleast_1d(np.asarray(step, dtype=float)) for step in s])
    dims = tuple(len(step) for step in paths[0])
    if 0 in dims:
        raise ValueError("sample steps must hold at least one value")
    for s in paths:
        if tuple(len(step) for step in s) != dims:
            raise ValueError("sample paths have unequal step dimensions")
        if not all(np.isfinite(step).all() for step in s):
            raise ValueError("sample values must be finite")

    rng = np.random.default_rng(seed)

    def split(t: int, members: list[int]) -> list:
        """The ``build_process`` branches below a node whose samples are ``members``."""
        if t > depth:
            return []
        pts = np.array([paths[i][t - 1] for i in members])
        labels = _kmeans(pts, branching[t - 1], rng)
        groups: dict[int, list[int]] = {}
        for i, lab in zip(members, labels):
            groups.setdefault(int(lab), []).append(i)
        # sort children by centroid for a stable layout
        entries = []
        for lab, grp in groups.items():
            centroid = np.array([paths[i][t - 1] for i in grp]).mean(axis=0)
            entries.append((tuple(centroid.tolist()), grp))
        entries.sort(key=lambda e: e[0])
        return [(len(grp) / len(members), centroid, split(t + 1, grp)) for centroid, grp in entries]

    try:
        with np.errstate(over="raise", invalid="raise"):
            branches = split(1, list(range(len(paths))))
    except FloatingPointError as exc:
        raise OverflowError(f"sample values too far apart to cluster: {exc}") from None
    return build_process(dims, branches)


def tree_to_dict(proc: TreeProcess) -> dict:
    """JSON-ready form of a process."""
    return {
        "depth": proc.depth,
        "value_dims": list(proc.value_dims),
        "nodes": [
            {
                "id": n.id,
                "parent": n.parent,
                "time": n.time,
                "value": None if n.value is None else list(n.value),
                "prob": n.prob,
            }
            for n in proc.nodes
        ],
    }


def _int_field(v) -> int:
    """A document's integer field: what ``operator.index`` takes, but no bool."""
    if isinstance(v, bool) or not hasattr(v, "__index__"):
        raise TypeError(f"expected an integer, got {v!r}")
    return operator.index(v)


def _float_field(v) -> float:
    """A document's number field as a float: ints and floats, no strings or bools."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def _int_fields(items: list, nullable: bool = False) -> list:
    """``_int_field`` over a list, ``None`` kept where ``nullable``; a list of
    plain ints comes back as it is."""
    if set(map(type, items)) <= ({int, type(None)} if nullable else {int}):
        return items
    return [v if v is None and nullable else _int_field(v) for v in items]


def _float_fields(items: list) -> list:
    """``_float_field`` over a list; a list of plain floats comes back as it is."""
    if set(map(type, items)) <= {float}:
        return items
    return [_float_field(v) for v in items]


def tree_from_dict(data: dict) -> TreeProcess:
    """Inverse of :func:`tree_to_dict`; raises ValueError on malformed input,
    numbers of the wrong type included."""
    try:
        depth = _int_field(data["depth"])
        dims = tuple(_int_fields(list(data["value_dims"])))
        raw = data["nodes"]
        ids = _int_fields([n["id"] for n in raw])
        parents = _int_fields([n["parent"] for n in raw], nullable=True)
        times = _int_fields([n["time"] for n in raw])
        values = [None if n["value"] is None else tuple(_float_fields(n["value"])) for n in raw]
        probs = _float_fields([n["prob"] for n in raw])
        nodes = tuple(map(TreeNode, ids, parents, times, values, probs))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed tree document: {exc}") from exc
    return TreeProcess(depth=depth, value_dims=dims, nodes=nodes)
