"""Correctness gates and statistics for the benchmark, kept independent of
the code under test: graphs are handled only through their `n` and `edges`
fields, so a change inside obskit cannot make its own output look right.
"""
from __future__ import annotations

import itertools
from collections import Counter

RELATIONS = ("subgraph", "topological_minor", "minor", "immersion")
#: largest graph the brute-force canonical key accepts (8! relabellings)
MAX_KEY_VERTICES = 8


def canonical_key(g) -> tuple:
    """The least upper-triangle multiplicity vector over all relabellings.

    Brute force by design: it shares no code with obskit's canonical form,
    and the fixtures it is used on have at most seven vertices.
    """
    n = g.n
    if n > MAX_KEY_VERTICES:
        raise ValueError(f"canonical_key is limited to {MAX_KEY_VERTICES} "
                         f"vertices, got {n}")
    mat = [[0] * n for _ in range(n)]
    for u, v, m in g.edges:
        mat[u][v] = mat[v][u] = m
    pairs = [(i, j) for j in range(n) for i in range(j)]
    best = None
    for perm in itertools.permutations(range(n)):
        vec = tuple(mat[perm[i]][perm[j]] for i, j in pairs)
        if best is None or vec < best:
            best = vec
    return (n, best or ())


def key_multiset(graphs) -> Counter:
    return Counter(canonical_key(g) for g in graphs)


def same_graph_set(computed, expected_keys: Counter) -> bool:
    """True when `computed` equals the expected graphs up to relabelling,
    counting repeats."""
    return key_multiset(computed) == expected_keys


def lattice_violations(answers: dict) -> list[str]:
    """Broken implications among one pair's containment answers.

    `answers` maps relation value to bool; relations not asked are skipped.
    Subgraph implies topological minor, topological minor implies minor,
    and subgraph implies immersion.
    """
    rules = (("subgraph", "topological_minor"),
             ("topological_minor", "minor"),
             ("subgraph", "immersion"))
    return [f"{a} without {b}" for a, b in rules
            if answers.get(a) is True and answers.get(b) is False]


# -- layout costs, recomputed from the definitions ---------------------------

def _adjacency(g) -> list[set]:
    adj = [set() for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _check_layout(g, order):
    if sorted(order) != list(range(g.n)):
        raise ValueError("layout is not a permutation of the vertices")


def treewidth_layout_cost(g, order) -> int:
    """Worst count of earlier vertices adjacent to the component (inside
    the unplaced suffix) of the vertex placed at each position."""
    _check_layout(g, order)
    adj = _adjacency(g)
    worst = 0
    for i, v in enumerate(order):
        suffix = set(order[i:])
        comp, stack = {v}, [v]
        while stack:
            for y in adj[stack.pop()]:
                if y in suffix and y not in comp:
                    comp.add(y)
                    stack.append(y)
        worst = max(worst, sum(1 for u in order[:i] if adj[u] & comp))
    return worst


def pathwidth_layout_cost(g, order) -> int:
    """Worst count of placed vertices with a neighbour still unplaced."""
    _check_layout(g, order)
    adj = _adjacency(g)
    worst = 0
    for i in range(len(order)):
        suffix = set(order[i:])
        worst = max(worst, sum(1 for u in order[:i] if adj[u] & suffix))
    return worst


def cutwidth_layout_cost(g, order) -> int:
    """Worst number of edge units crossing a gap of the layout."""
    _check_layout(g, order)
    pos = {v: i for i, v in enumerate(order)}
    return max((sum(m for u, v, m in g.edges if (pos[u] < i) != (pos[v] < i))
                for i in range(1, len(order))), default=0)


# -- statistics ---------------------------------------------------------------

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest percentile with
    at least TAIL_BEYOND samples beyond it.

    With n samples that is the value at rank n - TAIL_BEYOND (1-based) of
    the sorted samples, i.e. percentile 100 * (n - TAIL_BEYOND) / n.  With
    TAIL_BEYOND samples or fewer no percentile qualifies, and the maximum
    is reported as percentile 100 with nothing beyond it.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1], 0
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1], TAIL_BEYOND
