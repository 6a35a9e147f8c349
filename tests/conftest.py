"""Shared builders and document references for the test suite."""

import csv
import json

import numpy as np
import pytest

from adawass import build_process, chain_process, path_law, tree_to_dict


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
