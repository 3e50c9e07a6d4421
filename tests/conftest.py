import random

import networkx as nx
from hypothesis import settings, strategies as st

from obskit.multigraph import MultiGraph

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


def relabel(g, perm):
    """Apply a vertex permutation; perm[v] is the new name of v."""
    return MultiGraph.build(
        g.n, [(perm[u], perm[v], m) for u, v, m in g.edges])


def shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


def drop_one_matched_pair(monkeypatch):
    """Make networkx's bipartite matching forget one of its matched pairs."""
    real = nx.bipartite.maximum_matching

    def corrupted(B, top_nodes=None):
        match = dict(real(B, top_nodes=top_nodes))
        left = min(node for node in match if node in top_nodes)
        del match[match.pop(left)]
        return match

    monkeypatch.setattr(nx.bipartite, "maximum_matching", corrupted)
