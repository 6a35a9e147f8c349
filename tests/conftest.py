"""Shared builders and document references for the test suite."""

import csv
import json
import math
from itertools import chain, repeat

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from adawass import (DiscreteLaw, TreeNode, TreeProcess, aw_distance, build_process, chain_process, path_distance,
                     path_law, tree_to_dict, w_distance)
from adawass.canonical import InfoState
from adawass.discrete_ot import MARGINAL_TOL
from adawass.trees import PROB_TOL

# the settings of every property test: the same examples on every run
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def epsilon_x():
    """Two-step process: zero first, then a fair +-1 step revealed at time 2."""
    return build_process([1, 1], [
        (1.0, 0.0, [(0.5, -1.0, []), (0.5, 1.0, [])]),
    ])


def epsilon_y(eps):
    """Mirror process: the +-1 outcome is leaked at time 1 through +-eps."""
    return build_process([1, 1], [
        (0.5, -eps, [(1.0, -1.0, [])]),
        (0.5, +eps, [(1.0, +1.0, [])]),
    ])


def random_process(rng, depth=None, dims=None, max_branch=3, min_prob=0.1, value_scale=1.0):
    """Random valid scenario tree with per-node branching in 1..max_branch."""
    if depth is None:
        depth = int(rng.integers(1, 4))
    if dims is None:
        dims = tuple(int(rng.integers(1, 3)) for _ in range(depth))

    def spawn(t):
        if t > depth:
            return []
        k = int(rng.integers(1, max_branch + 1))
        raw = rng.uniform(min_prob, 1.0, size=k)
        probs = raw / raw.sum()
        return [
            (float(probs[i]),
             tuple((value_scale * rng.normal(size=dims[t - 1])).tolist()),
             spawn(t + 1))
            for i in range(k)
        ]

    return build_process(list(dims), spawn(1))


def random_pair(rng, depth=None, dims=None, max_branch=3, **kw):
    """Two shape-compatible random processes."""
    if depth is None:
        depth = int(rng.integers(1, 4))
    if dims is None:
        dims = tuple(int(rng.integers(1, 3)) for _ in range(depth))
    return (random_process(rng, depth, dims, max_branch, **kw),
            random_process(rng, depth, dims, max_branch, **kw))


@st.composite
def small_trees(draw, dims=None):
    """Trees of depth 1..3 (or of value dims ``dims``), value dims 1..2, up to
    three children per node with masses from few weights, and values in
    [-10, 10]."""
    if dims is None:
        depth = draw(st.integers(1, 3))
        dims = draw(st.lists(st.integers(1, 2), min_size=depth, max_size=depth))
    depth = len(dims)
    number = st.floats(-10.0, 10.0)
    level = [(1, [])]   # the nodes whose children are drawn next: (their level, their branches)
    root = level[0][1]
    while level:
        t, out = level.pop()
        weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        for w in weights:
            value = draw(st.lists(number, min_size=dims[t - 1], max_size=dims[t - 1]))
            out.append((w / sum(weights), tuple(value), kids := []))
            if t < depth:
                level.append((t + 1, kids))
    return build_process(dims, root)


def relisted(proc, order, rng):
    """The same tree with its node list depth-first (as built), breadth-first,
    in the same order with fresh ids ("relabelled"), or shuffled with fresh
    ids."""
    nodes = list(proc.nodes)
    if order == "breadth-first":
        nodes.sort(key=lambda n: n.time)
    elif order in ("relabelled", "shuffled"):
        fresh = dict(zip((n.id for n in nodes), (7 * rng.permutation(len(nodes)) - 3).tolist()))
        listing = rng.permutation(len(nodes)).tolist() if order == "shuffled" else range(len(nodes))
        nodes = [TreeNode(fresh[n.id], fresh.get(n.parent), n.time, n.value, n.prob)
                 for n in map(nodes.__getitem__, listing)]
    return TreeProcess(proc.depth, proc.value_dims, nodes)


def w_of_path_laws(x, y, p):
    """Classical distance between the path laws, forgetting filtrations."""
    lx, ly = path_law(x), path_law(y)
    mu = DiscreteLaw.from_arrays(
        [np.concatenate(atom) for atom, _ in lx.atoms], [m for _, m in lx.atoms]
    )
    nu = DiscreteLaw.from_arrays(
        [np.concatenate(atom) for atom, _ in ly.atoms], [m for _, m in ly.atoms]
    )
    cost = [
        [path_distance(a, b, p) ** p for b, _ in ly.atoms] for a, _ in lx.atoms
    ]
    value, _ = w_distance(mu, nu, cost)
    return value ** (1.0 / p)


def marginal_bound_by_levels(x, y):
    """sum_t |(W_1(law x_t^k, law y_t^k))_k|_2, level by level and component
    by component: the values of both trees sorted stably (x's before y's at
    a tie, each in layout order), the CDF difference summed left to right,
    and each gap times its |CDF| summed left to right from 0.0."""
    levels = []
    for lx, ly in zip(x.layout[1:], y.layout[1:]):
        w = []
        for k in range(lx.values.shape[1]):
            values = np.concatenate([lx.values[:, k], ly.values[:, k]]).tolist()
            masses = np.concatenate([lx.reach, -ly.reach]).tolist()
            order = sorted(range(len(values)), key=values.__getitem__)
            cdf = total = 0.0
            for i, j in zip(order, order[1:]):
                cdf += masses[i]
                total += (values[j] - values[i]) * abs(cdf)
            w.append(total)
        levels.append(math.hypot(*w))
    return math.fsum(levels)


def ancestor_at(proc, node_id, t):
    """The ancestor of ``node_id`` at level ``t``, by a walk up the parents."""
    nid = node_id
    while proc.node(nid).time > t:
        nid = proc.node(nid).parent
    return nid


def leaf_paths(proc):
    """Values along the root-to-leaf path of every leaf, one per level 1..T."""
    return dict(zip(proc.leaves, (path for path, _ in path_law(proc).atoms)))


def pair_marginal(coupling, i):
    """Marginal of coordinates (i, i+1) of a multicausal coupling on leaf pairs."""
    out = {}
    for tup, m in coupling.masses.items():
        key = (tup[i], tup[i + 1])
        out[key] = out.get(key, 0.0) + m
    return out


def total_mass(law):
    """Total mass of a ``PathLaw``'s atoms."""
    return sum(m for _, m in law.atoms)


def step_cost(a, b, p):
    """One-step contribution |a - b|_2^p of the p-metric."""
    return math.sqrt(sum((u - v) ** 2 for u, v in zip(a, b))) ** p


def marginal_errors(plan):
    """Largest row and column deviations of a ``TransportPlan`` from its marginals."""
    m = plan.as_array()
    row = float(np.abs(m.sum(axis=1) - np.asarray(plan.source_masses)).max())
    col = float(np.abs(m.sum(axis=0) - np.asarray(plan.target_masses)).max())
    return row, col


def is_feasible(plan, tol=MARGINAL_TOL):
    """Whether a ``TransportPlan`` meets its marginals and is nonnegative, within ``tol``."""
    row, col = marginal_errors(plan)
    return row <= tol and col <= tol and plan.as_array().min() >= -tol


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def dirac_pair():
    return chain_process([1.0, 2.0]), chain_process([3.0, 5.0])


# -- document references: what the template writers must reproduce -------------

def flow_to_dict(flow):
    """The flow document as data; the reference for the template writer."""
    labels = {
        str(nid): {str(i): list(flow.labels[i][nid]) for i in range(len(flow.grid))}
        for nid in flow.labels[0]
    }
    return {"base": tree_to_dict(flow.base), "grid": list(flow.grid), "p": flow.p,
            "interpolation": flow.interpolation, "labels": labels}


def encoded(doc) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


def write_particles_by_label_path(path, flow):
    """The particles CSV leaf by leaf through label_path; the reference for the array writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        dim = max(len(v) for v in flow.labels[0].values())
        writer.writerow(["u", "particle", "time", *[f"x{i}" for i in range(dim)]])
        for i, u in enumerate(flow.grid):
            for leaf in flow.base.leaves:
                for t, vec in enumerate(flow.label_path(leaf, i), start=1):
                    writer.writerow([repr(u), leaf, t, *[repr(v) for v in vec]])


# -- the former per-node tree paths: references for the columnar store ---------

def layout_by_nodes(proc):
    """The per-level layout as the former builder made it from the node list:
    one (ids, parent, bounds, prob, values, reach, index) tuple per level."""
    ids, parents, _, values, probs = zip(*proc.nodes)
    index = dict(zip(ids, range(len(ids))))
    parent = np.fromiter(map(index.get, parents, repeat(-1)), np.intp, len(ids))
    prob = np.array(probs, dtype=float)
    members, member_parent, reach = np.array([index[proc.root_id]]), np.full(1, -1), np.ones(1)
    pos = np.full(len(ids) + 1, -1)
    out = []
    for t in range(proc.depth + 1):
        pos[members] = np.arange(members.size)
        parent_pos = pos[parent]
        pos[members] = -1
        kids = np.flatnonzero(parent_pos >= 0)
        kids = kids[np.argsort(parent_pos[kids], kind="stable")]
        at = members.tolist()
        vals = np.fromiter(chain.from_iterable(map(values.__getitem__, at)), float) if t else ()
        level = (tuple(map(ids.__getitem__, at)), member_parent,
                 np.searchsorted(parent_pos[kids], np.arange(members.size + 1)),
                 prob[members], np.reshape(vals, (len(at), -1)), reach, members)
        for arr in level[1:]:
            arr.flags.writeable = False
        out.append(level)
        members, member_parent = kids, parent_pos[kids]
        reach = reach[member_parent] * prob[kids]
    return tuple(out)


def assert_same_layout(got, want):
    """Two layouts agree in ids and in every array's dtype, shape, bytes and
    read-only flag."""
    assert len(got) == len(want)
    for level, expected in zip(got, want):
        assert level[0] == expected[0]
        assert len(level) == len(expected)
        for a, b in zip(level[1:], expected[1:]):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert not a.flags.writeable and not b.flags.writeable


def validate_by_nodes(proc):
    """The former validate: the same checks, node by node over the node list."""
    violations = []
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
        violations.append(f"value_dims has {len(proc.value_dims)} entries for depth {proc.depth}")
        return violations
    if proc.depth < 1:
        violations.append(f"depth {proc.depth} < 1")
    if any(d < 1 for d in proc.value_dims):
        violations.append(f"value_dims {list(proc.value_dims)} has an entry below 1")
        return violations
    by_id = {n.id: n for n in proc.nodes}
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
    kids = {n.id: [] for n in proc.nodes}
    for n in proc.nodes:
        if n.parent in kids:
            kids[n.parent].append(n.id)
    for nid, ks in kids.items():
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


# -- the former node-by-node builders: references for the level-wise paths ----

def build_process_by_nodes(value_dims, branches):
    """The former build_process: one ``TreeNode`` per entry of the nested
    description, by a recursive walk, ids in depth-first preorder."""
    nodes = [TreeNode(id=0, parent=None, time=0, value=None, prob=1.0)]

    def visit(parent_id, t, subtrees):
        for prob, value, kids in subtrees:
            nid = len(nodes)
            vec = tuple(value) if isinstance(value, (tuple, list)) else (float(value),)
            nodes.append(TreeNode(id=nid, parent=parent_id, time=t, value=vec, prob=float(prob)))
            visit(nid, t + 1, kids)

    visit(0, 1, branches)
    return TreeProcess(depth=len(value_dims), value_dims=tuple(value_dims), nodes=tuple(nodes))


def close_by_nesting(a, b):
    """The former canonical._close at zero tolerance: whether two nested states
    are the same, values and masses compared one by one, recursively."""
    (va, la), (vb, lb) = a, b
    if va != vb or (la is None) != (lb is None):
        return False
    return la is None or len(la) == len(lb) and all(
        qa == qb and close_by_nesting(sa, sb) for (sa, qa), (sb, qb) in zip(la, lb)
    )


def merge_by_nesting(entries):
    """The former canonical._merge: equal nested states grouped in node-list
    order, the first of a group representing it, masses summed in sorted
    order, groups sorted by state."""
    groups = []
    for state, q in entries:
        for rep, qs in groups:
            if close_by_nesting(rep, state):
                qs.append(q)
                break
        else:
            groups.append((state, [q]))
    merged = [(rep, sum(sorted(qs))) for rep, qs in groups]
    merged.sort(key=lambda e: e[0])
    return tuple(merged)


def snapped_by_nodes(proc, tol):
    """``proc`` with every value component moved node by node to the nearest
    point of the grid k * tol, ties to even, zero as 0.0 (``proc`` itself at
    ``tol`` zero); for values less than 2**52 grid steps from zero."""
    if tol == 0.0:
        return proc
    return TreeProcess(proc.depth, proc.value_dims, [
        n if n.value is None else n._replace(value=tuple(round(v / tol) * tol + 0.0 for v in n.value))
        for n in proc.nodes
    ])


def branches_by_nesting(law):
    """The former canonical._branches: the ``build_process`` branches of the
    tree whose level-1 information law is ``law``, recursively."""
    return [(prob, state.value, branches_by_nesting(state.law or ())) for state, prob in law]


def law_by_nodes(proc, nid, states=None):
    """The former canonical._law: the merged law of the states of a node's
    children, depth-first over ``children()`` and ``node()``; records every
    child's state in ``states`` when given."""
    entries = []
    for c in proc.children(nid):
        node = proc.node(c)
        state = InfoState(node.value, law_by_nodes(proc, c, states) if proc.children(c) else None)
        if states is not None:
            states[c] = state
        entries.append((state, node.prob))
    return merge_by_nesting(entries)


def information_process_by_nodes(proc):
    states = {}
    law_by_nodes(proc, proc.root_id, states)
    return states


def canonicalize_by_nodes(proc, tol):
    """The tolerant canonical form as the snapped tree's exact one, node by node."""
    snapped = snapped_by_nodes(proc, tol)
    return build_process_by_nodes(proc.value_dims, branches_by_nesting(law_by_nodes(snapped, snapped.root_id)))


def equivalent_by_nodes(a, b, tol):
    """Equal level-1 information laws, or, with a positive ``tol``, AW_1 of the
    two trees themselves at most ``tol``."""
    same = close_by_nesting(InfoState((), law_by_nodes(a, a.root_id)), InfoState((), law_by_nodes(b, b.root_id)))
    return same or tol > 0.0 and aw_distance(a, b, 1.0)[0] <= tol
