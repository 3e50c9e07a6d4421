import random

from hypothesis import settings, strategies as st

from obskit import poset
from obskit.multigraph import (MultiGraph, _from_canonical, canonical_form,
                               delete_edge)

# One profile for the whole suite: containment and layout solvers are too
# spiky for the default deadline, and derandomizing keeps CI runs repeatable.
settings.register_profile("suite", deadline=None, max_examples=40,
                          derandomize=True)
settings.load_profile("suite")


@st.composite
def multigraphs(draw, max_n=6, max_mult=1, min_n=0):
    n = draw(st.integers(min_n, max_n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            m = draw(st.integers(0, max_mult))
            if m:
                edges.append((u, v, m))
    return MultiGraph(n, tuple(edges))


def subdivide_edge(g, u, v):
    """Replace one unit of uv by a path through a fresh vertex n."""
    if g.multiplicity(u, v) == 0:
        raise ValueError(f"no edge ({u},{v})")
    h = delete_edge(g, u, v)
    w = g.n
    items = list(h.edges) + [(u, w, 1), (v, w, 1)]
    return MultiGraph.build(g.n + 1, items)


def disjoint_union(a, b):
    edges = list(a.edges) + [(u + a.n, v + a.n, m) for u, v, m in b.edges]
    return MultiGraph.build(a.n + b.n, edges)


def caterpillar(spine, legs):
    """A path on `spine` vertices with one leaf hung on each of `legs`."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(v, spine + i) for i, v in enumerate(legs)]
    return MultiGraph.build(spine + len(legs), edges)


def copies(k, z):
    """k disjoint copies of z (k >= 1)."""
    if k < 1:
        raise ValueError("need a positive number of copies")
    out = z
    for _ in range(k - 1):
        out = disjoint_union(out, z)
    return out


def relabel_canonically(g):
    """An isomorphic copy whose labels follow the canonical order."""
    return _from_canonical(canonical_form(g))


def relabel(g, perm):
    """Apply a vertex permutation; perm[v] is the new name of v."""
    return MultiGraph.build(
        g.n, [(perm[u], perm[v], m) for u, v, m in g.edges])


def shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


def drop_one_matched_pair(monkeypatch):
    """Make the poset width's matching forget one of its matched pairs."""
    real = poset._matching

    def corrupted(above):
        pred = real(above)
        del pred[min(pred)]
        return pred

    monkeypatch.setattr(poset, "_matching", corrupted)
