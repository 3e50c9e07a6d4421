"""Loopless undirected multigraphs, their canonical forms and enumeration.

Graphs are immutable: vertices are 0..n-1, edges are unordered pairs with an
integer multiplicity >= 1.  The empty graph (n = 0) is a valid value and takes
part in enumeration.  Everything downstream (containment tests, parameter
solvers, obstruction scans) relies on three guarantees made here:

* `canonical_form` returns identical bytes exactly for isomorphic graphs,
* `enum_key` is a total order refining vertex count, so enumeration order is
  reproducible across runs and platforms,
* `enumerate_graphs` yields exactly one representative per isomorphism class,
  canonically labelled: its vertex i is vertex i of the canonical order, so
  the representative depends only on the class, never on how enumeration
  reached it.

One canonical search, `_canonical_search`, gives a graph's bytes together
with generators of its automorphism group.  Enumeration keeps the
generators of every class it meets and extends each parent once per orbit
of attachments under them.

One private grower, `_grow_closed`, grows closed classes for both the
obstruction scan and the omnivore construction in one loop that searches
only the children it keeps, and one blocks routine, `_block_sets`, serves
both the outerplanarity test and `bi_pathwidth`.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator


class GraphFormatError(ValueError):
    """Raised when graph text or graph6 input is malformed."""


class BudgetExceededError(RuntimeError):
    """Raised when a request exceeds the configured size caps or time budget.

    `detail` carries the offending sizes, or the budget and the time spent,
    so callers can report what was asked for versus what is allowed.
    """

    def __init__(self, message: str, detail: dict | None = None):
        super().__init__(message)
        self.detail = detail or {}


#: size caps for exhaustive enumeration
MAX_SIMPLE_VERTICES = 8
MAX_MULTI_VERTICES = 6
MAX_MULTIPLICITY = 8
#: vertices plus edge pairs of the largest graph a family builds or a text
#: file declares
MAX_GRAPH_SIZE = 10**6


@dataclass(frozen=True)
class MultiGraph:
    """A loopless multigraph on vertices 0..n-1.

    `edges` is a sorted tuple of (u, v, mult) with u < v and mult >= 1.
    Use `MultiGraph.build` to construct from unnormalized edge data.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be >= 0")
        prev = (-1, -1)
        for u, v, m in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range or not u<v for n={self.n}")
            if m < 1:
                raise ValueError(f"edge ({u},{v}) has multiplicity {m} < 1")
            if (u, v) <= prev:  # in sorted pairs a repeat follows its twin
                raise ValueError(f"duplicate edge pair ({u},{v})" if (u, v) == prev
                                 else "edges must be sorted; use MultiGraph.build")
            prev = (u, v)

    @staticmethod
    def build(n: int, edge_items: Iterable[tuple[int, int] | tuple[int, int, int]]) -> "MultiGraph":
        """Normalize arbitrary edge data: pairs get multiplicity 1, repeats accumulate."""
        acc: dict[tuple[int, int], int] = {}
        for item in edge_items:
            if len(item) == 2:
                u, v = item
                m = 1
            else:
                u, v, m = item
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if u > v:
                u, v = v, u
            acc[(u, v)] = acc.get((u, v), 0) + m
        edges = tuple(sorted((u, v, m) for (u, v), m in acc.items()))
        return MultiGraph(n, edges)

    # -- derived views -----------------------------------------------------

    @cached_property
    def edge_dict(self) -> dict[tuple[int, int], int]:
        return {(u, v): m for u, v, m in self.edges}

    @cached_property
    def adj(self) -> tuple[dict[int, int], ...]:
        """Per-vertex neighbor -> multiplicity maps.

        Keys ascend, because `edges` is sorted: iterating `adj[v]` visits
        v's neighbors in label order without a sort.
        """
        a: list[dict[int, int]] = [dict() for _ in range(self.n)]
        for u, v, m in self.edges:
            a[u][v] = m
            a[v][u] = m
        return tuple(a)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v, _ in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def edge_degrees(self) -> tuple[int, ...]:
        d = [0] * self.n
        for u, v, m in self.edges:
            d[u] += m
            d[v] += m
        return tuple(d)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Simple degrees: number of distinct neighbors."""
        d = [0] * self.n
        for u, v, _ in self.edges:
            d[u] += 1
            d[v] += 1
        return tuple(d)

    @property
    def total_units(self) -> int:
        return sum(m for _, _, m in self.edges)

    def multiplicity(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self.edge_dict.get((u, v), 0)

    def is_simple(self) -> bool:
        return all(m == 1 for _, _, m in self.edges)

    def simplify(self) -> "MultiGraph":
        if self.is_simple():
            return self
        return MultiGraph(self.n, tuple((u, v, 1) for u, v, _ in self.edges))

    def max_multiplicity(self) -> int:
        return max((m for _, _, m in self.edges), default=0)

    @cached_property
    def _canonical(self) -> bytes:
        return _canonical_search(self)[0]

    @cached_property
    def _automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Generators of the automorphism group, in this graph's labels.

        Enumeration seeds them; otherwise one canonical search of these
        labels finds them, and fills `_canonical` on the way.
        """
        key, _, autos = _canonical_search(self)
        self.__dict__.setdefault("_canonical", key)
        return tuple(map(tuple, autos))

    def __repr__(self):
        return f"MultiGraph(n={self.n}, edges={list(self.edges)})"


K0 = MultiGraph(0)


# -- elementary operations -------------------------------------------------

def delete_vertices(g: MultiGraph, vertices: Iterable[int]) -> MultiGraph:
    """Remove the vertices and their incident edges; the survivors keep
    their order and are relabelled 0, 1, ...

    The relabelling keeps the order of labels, so the surviving edges stay
    sorted and distinct and need no rebuild.
    """
    gone = set(vertices)
    for v in gone:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    label = {w: i for i, w in enumerate(w for w in range(g.n) if w not in gone)}
    edges = tuple((label[a], label[b], m) for a, b, m in g.edges
                  if a in label and b in label)
    return MultiGraph(len(label), edges)


def delete_edge(g: MultiGraph, u: int, v: int) -> MultiGraph:
    """Remove one unit of multiplicity from edge uv; the pair disappears at 0.

    Only that pair's entry changes, so the edges stay sorted.
    """
    if u > v:
        u, v = v, u
    m = g.multiplicity(u, v)
    if m == 0:
        raise ValueError(f"no edge ({u},{v})")
    i = g.edges.index((u, v, m))
    rest = ((u, v, m - 1),) if m > 1 else ()
    return MultiGraph(g.n, g.edges[:i] + rest + g.edges[i + 1:])


def contract_edge(g: MultiGraph, u: int, v: int, simple: bool) -> MultiGraph:
    """Contract edge uv into min(u, v); the vertices above max(u, v) move
    down one label.

    simple mode gives every remaining pair multiplicity 1; multigraph mode
    adds up the parallel edges the merge creates.  Loops vanish in both
    modes.
    """
    if g.multiplicity(u, v) == 0:
        raise ValueError(f"no edge ({u},{v})")
    keep, gone = min(u, v), max(u, v)
    label = [w - (w > gone) for w in range(g.n)]
    label[gone] = keep
    acc: dict[tuple[int, int], int] = {}
    for a, b, m in g.edges:
        a2, b2 = label[a], label[b]
        if a2 == b2:
            continue  # the contracted pair, and any loop, vanish
        if a2 > b2:
            a2, b2 = b2, a2
        acc[(a2, b2)] = 1 if simple else acc.get((a2, b2), 0) + m
    return MultiGraph(g.n - 1, tuple(sorted((a, b, m) for (a, b), m in acc.items())))


def lift_pair(g: MultiGraph, x: int, y: int, z: int) -> MultiGraph:
    """Lift the pair of edges xy, yz: remove one unit from each, add unit xz.

    Requires x != z (no loops).  Total edge-degree of x and z is preserved and
    the edge-degree of y drops by 2.
    """
    if x == z:
        raise ValueError("lift endpoints must differ (loops not allowed)")
    if g.multiplicity(x, y) == 0 or g.multiplicity(y, z) == 0:
        raise ValueError("both edges of the lifted pair must exist")
    units = dict(g.edge_dict)
    for a, b, step in ((x, y, -1), (y, z, -1), (x, z, 1)):
        pair = (min(a, b), max(a, b))
        units[pair] = units.get(pair, 0) + step
    return MultiGraph(g.n, tuple(sorted((a, b, m) for (a, b), m in units.items() if m)))


# -- canonical forms -------------------------------------------------------

def _mult_matrix(g: MultiGraph) -> list[list[int]]:
    n = g.n
    mat = [[0] * n for _ in range(n)]
    for u, v, m in g.edges:
        mat[u][v] = m
        mat[v][u] = m
    return mat


def _stable_colors(n: int, mat: list[list[int]], colors: list[int]) -> list[int]:
    """Iterated color refinement by full (color, multiplicity) profiles.

    `colors` must be dense ranks 0..k-1.  A profile keeps the diagonal pair
    (own color, 0), which every vertex of that color shares, so it orders
    vertices as the profile without it would.  Ranks sort by the old color
    first, so a round that adds no color returns the same ranks and ends
    the refinement.
    """
    count = len(set(colors))
    while count < n:
        sigs = [(c, tuple(sorted(zip(colors, row))))
                for c, row in zip(colors, mat)]
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(ranks) == count:
            break
        colors = [ranks[s] for s in sigs]
        count = len(ranks)
    return colors


def _canonical_search(g: MultiGraph) -> tuple[bytes, list[int], list[list[int]]]:
    """(bytes, order, automorphisms) of one canonical search of g.

    The bytes are the minimal adjacency encoding: n, then the lower
    triangle of the multiplicity matrix row by row, over all admissible
    vertex orders.  `order` is the best order in g's labels: canonical
    vertex i is g's vertex order[i].  Each automorphism is a list in g's
    labels, vertex x to auto[x].  Together they generate g's automorphism
    group: every order with the best encoding is an automorphism's image
    of the best order, and a subtree is skipped only when the automorphisms
    already found map it onto one explored.

    The search places vertices in blocks of the refined coloring (valid since
    refinement is isomorphism-invariant) and prunes on the partial encoding:
    a node whose prefix equals the best one compares only its new row with
    the best's row at that depth, and a node whose prefix is already below
    the best compares nothing.  A leaf equal to the best gives an
    automorphism, best_order[i] -> order[i].  A candidate is skipped when
    it shares an orbit with an already-explored sibling under the
    automorphisms found so far that fix the current prefix pointwise (one
    union-find per node): they keep the colors and the encoding, so its
    subtree holds the same encodings as the sibling's (McKay-Piperno orbit
    pruning).  The minimum, and so the bytes, are those of the full search.
    """
    n = g.n
    if n > 255:
        raise BudgetExceededError("canonical form limited to 255 vertices", {"n": n})
    if g.max_multiplicity() > 255:
        raise BudgetExceededError("multiplicity beyond canonical byte range",
                                  {"multiplicity": g.max_multiplicity()})
    mat = _mult_matrix(g)
    colors = _stable_colors(n, mat, [0] * n)
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    color_seq = sorted(by_color)

    best_rows: list[tuple[int, ...]] | None = None
    best_order: list[int] = []
    autos: list[list[int]] = []
    order: list[int] = []
    rows: list[tuple[int, ...]] = []
    remaining = {c: set(vs) for c, vs in by_color.items()}

    def find(uf: list[int], x: int) -> int:
        while uf[x] != x:
            uf[x] = x = uf[uf[x]]
        return x

    def dfs(depth: int, tie: bool) -> bool:
        """Search below `order`; `tie` says its rows equal the best's
        prefix (else they are below it).  True when a leaf below replaced
        the best, which leaves this prefix tied with the new best."""
        nonlocal best_rows, best_order
        if depth == n:
            if tie:
                auto = list(range(n))
                for x, y in zip(best_order, order):
                    auto[x] = y
                autos.append(auto)
                return False
            best_rows, best_order = list(rows), list(order)
            return True
        block = 0
        while not remaining[color_seq[block]]:
            block += 1
        cell = remaining[color_seq[block]]
        replaced = False
        explored: list[int] = []
        uf: list[int] | None = None
        used_autos = 0
        for v in sorted(cell):
            if used_autos < len(autos):
                for auto in autos[used_autos:]:
                    if all(auto[x] == x for x in order):
                        if uf is None:
                            uf = list(range(n))
                        for x in cell:
                            uf[find(uf, x)] = find(uf, auto[x])
                used_autos = len(autos)
            if uf is not None and find(uf, v) in {find(uf, w) for w in explored}:
                continue
            explored.append(v)
            row = tuple(map(mat[v].__getitem__, order))
            child_tie = False
            if tie:
                if row > best_rows[depth]:
                    continue
                child_tie = row == best_rows[depth]
            cell.discard(v)
            order.append(v)
            rows.append(row)
            if dfs(depth + 1, child_tie):
                replaced = tie = True
            rows.pop()
            order.pop()
            cell.add(v)
        return replaced

    dfs(0, False)
    if best_rows is None:
        raise AssertionError("canonical search placed no complete order; bug")
    return bytes([n, *itertools.chain.from_iterable(best_rows)]), best_order, autos


def canonical_form(g: MultiGraph) -> bytes:
    """Bytes identical exactly for isomorphic graphs."""
    return g._canonical


def _from_canonical(key: bytes, pool: dict | None = None,
                    automorphisms: tuple | None = None) -> MultiGraph:
    """The graph of a canonical form, with canonical vertex i at label i.

    The form is seeded as the graph's cached canonical form, and
    `automorphisms`, when given, as its automorphism generators (in
    canonical labels).  Equal edge tuples are shared through `pool` when
    one is given, which keeps a layer of thousands of decoded graphs small.
    """
    n = key[0]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            m = key[1 + v * (v - 1) // 2 + u]
            if m:
                e = (u, v, m)
                edges.append(e if pool is None else pool.setdefault(e, e))
    g = MultiGraph(n, tuple(edges))
    g.__dict__["_canonical"] = key
    if automorphisms is not None:
        g.__dict__["_automorphisms"] = automorphisms
    return g


def _component_mask(start: int, allowed: int, nmask: tuple[int, ...]) -> int:
    comp = 1 << start
    frontier = comp
    while frontier:
        grown = 0
        m = frontier
        while m:
            low = m & -m
            grown |= nmask[low.bit_length() - 1]
            m ^= low
        grown &= allowed & ~comp
        comp |= grown
        frontier = grown
    return comp


def _forest(g: MultiGraph, gone: int = 0) -> bool:
    """Whether g minus the vertices in the bitmask `gone` is a forest.

    A parallel pair is a two-edge cycle.  Without one, the graph is a forest
    exactly when it has (vertices - components) edges.
    """
    edges = 0
    for u, v, m in g.edges:
        if not (gone >> u | gone >> v) & 1:
            if m > 1:
                return False
            edges += 1
    nmask = g.neighbor_masks
    left = allowed = ((1 << g.n) - 1) & ~gone
    components = 0
    while left:
        low = left & -left
        left &= ~_component_mask(low.bit_length() - 1, allowed, nmask)
        components += 1
    return edges == allowed.bit_count() - components


def _is_tree(g: MultiGraph) -> bool:
    """A forest with one edge unit fewer than vertices: a simple tree."""
    return g.n > 0 and g.total_units == g.n - 1 and _forest(g)


def _block_sets(g: MultiGraph) -> list[frozenset[int]]:
    """Vertex sets of the blocks of g's simplification that carry an edge:
    its 2-connected pieces and its bridges (isolated vertices are left out).

    Tarjan's lowpoint search, depth first from each unvisited vertex in
    label order: a tree edge (u, v) closes a block when nothing below v
    reaches above u, and the block is the edges stacked since (u, v).
    """
    adj = g.adj
    depth = [-1] * g.n
    low = [0] * g.n
    out: list[frozenset[int]] = []
    for root in range(g.n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        edges: list[tuple[int, int]] = []
        path = [(root, -1, iter(adj[root]))]
        while path:
            v, parent, nbrs = path[-1]
            for w in nbrs:
                if depth[w] < 0:
                    depth[w] = low[w] = depth[v] + 1
                    edges.append((v, w))
                    path.append((w, v, iter(adj[w])))
                    break
                if w != parent and depth[w] < depth[v]:
                    low[v] = min(low[v], depth[w])
                    edges.append((v, w))
            else:
                path.pop()
                if not path:
                    continue
                u = path[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= depth[u]:
                    block: set[int] = set()
                    while True:
                        a, b = edges.pop()
                        block.update((a, b))
                        if (a, b) == (u, v):
                            break
                    out.append(frozenset(block))
    return out


def _rooted(t: MultiGraph, root: int) -> tuple[list[list[int]], list[int]]:
    """Child lists of the vertices reachable from root, and those vertices
    in breadth-first order, every parent before its children."""
    children: list[list[int]] = [[] for _ in range(t.n)]
    order, seen = [root], {root}
    for v in order:
        for w in t.adj[v]:
            if w not in seen:
                seen.add(w)
                children[v].append(w)
                order.append(w)
    return children, order


def tree_code(g: MultiGraph) -> str | None:
    """Canonical code for a simple connected acyclic graph, else None.

    Linear-time rooted-code comparison from the centroid, so tree
    isomorphism stays cheap where the generic canonical search would choke
    on leaf symmetry.
    """
    if not _is_tree(g):
        return None
    if g.n == 1:
        return "()"
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    layer = [v for v in range(g.n) if len(adj[v]) == 1]
    remaining = g.n
    while remaining > 2:
        nxt = []
        for v in layer:
            (w,) = adj[v]
            adj[w].discard(v)
            adj[v].clear()
            if len(adj[w]) == 1:
                nxt.append(w)
        remaining -= len(layer)
        layer = nxt

    def code(root):
        children, order = _rooted(g, root)
        out = [""] * g.n
        for v in reversed(order):
            out[v] = "(" + "".join(sorted(out[c] for c in children[v])) + ")"
        return out[root]

    centers = [v for v in range(g.n) if adj[v]] or layer
    return min(code(c) for c in centers[:2])


def enum_key(g: MultiGraph) -> tuple[int, int, bytes]:
    """Total order on isomorphism classes: vertex count, edge units, canonical bytes."""
    return (g.n, g.total_units, canonical_form(g))


# -- exhaustive enumeration ------------------------------------------------

def _vertex_cap(mult_max: int) -> int:
    return MAX_SIMPLE_VERTICES if mult_max == 1 else MAX_MULTI_VERTICES


def _check_enum_budget(n_max: int, mult_max: int):
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if mult_max < 1:
        raise ValueError("mult_max must be >= 1")
    if mult_max > MAX_MULTIPLICITY:
        raise BudgetExceededError("multiplicity cap exceeded",
                                  {"mult_max": mult_max, "allowed": MAX_MULTIPLICITY})
    cap = _vertex_cap(mult_max)
    if n_max > cap:
        raise BudgetExceededError(
            f"enumeration to {n_max} vertices at mult_max={mult_max} exceeds the budget",
            {"n_max": n_max, "mult_max": mult_max, "allowed": cap})


def _children(layer: Iterable[MultiGraph], n: int,
              mult_max: int) -> Iterator[MultiGraph]:
    """The one-vertex extensions of the graphs of `layer` to n vertices
    that enumeration keeps, built but not yet searched.

    A child is kept only when its new vertex n-1 has the lexicographically
    largest (edge degree, distinct neighbours) of all its vertices; the test
    reads the parent's degrees and the attachment tuple, before any child is
    built.  The rule loses no class whose deletion of a vertex of largest
    value leaves a class in `layer`: attaching the vertex back to that
    class's representative gives a child isomorphic to the graph, whose new
    vertex has the largest value.  When `layer` is every class on n-1
    vertices, that is every class on n vertices; when it is every member of
    a class closed under vertex deletion, it covers every member on n
    vertices, and `_grow_closed` sorts out which children are members.

    Of the tuples that pass, one per orbit of the parent's automorphism
    group is built: the first in `itertools.product` order (McKay's
    isomorph-free generation).  An automorphism σ of the parent makes the
    children of t and of t∘σ isomorphic, and the degree test is invariant
    under it, so the kept children cover the same classes.
    """
    for parent in layer:
        base = parent.edges
        ed, dg = parent.edge_degrees, parent.degrees
        gens = parent._automorphisms
        covered: set[tuple[int, ...]] = set()
        for attach in itertools.product(range(mult_max + 1), repeat=n - 1):
            if attach in covered:
                continue
            top = (sum(attach), n - 1 - attach.count(0))
            if any((ed[u] + m, dg[u] + (m > 0)) > top for u, m in enumerate(attach)):
                continue
            orbit = [attach]
            covered.add(attach)
            for t in orbit:
                for sigma in gens:
                    image = tuple(map(t.__getitem__, sigma))
                    if image not in covered:
                        covered.add(image)
                        orbit.append(image)
            extra = tuple((u, n - 1, m) for u, m in enumerate(attach) if m > 0)
            yield MultiGraph(n, tuple(sorted(base + extra)))


def _classes(children: Iterable[MultiGraph]) -> list[MultiGraph]:
    """The isomorphism classes of `children`, canonically labelled and in
    `enum_key` order, one canonical search per child.  `_layer` hands it
    every child of a layer; `_grow_closed` only the children it keeps.

    Each class keeps its first child's automorphisms, conjugated into
    canonical labels, as the generators of its own extension.
    """
    found: dict[bytes, tuple] = {}
    for child in children:
        key, order, autos = _canonical_search(child)
        if key not in found:
            pos = [0] * len(order)
            for i, v in enumerate(order):
                pos[v] = i
            found[key] = tuple(tuple(pos[a[v]] for v in order) for a in autos)
    pool: dict = {}
    return sorted((_from_canonical(key, pool, generators)
                   for key, generators in found.items()), key=enum_key)


@lru_cache(maxsize=128)
def _layer(n: int, mult_max: int) -> tuple[MultiGraph, ...]:
    """Every class on exactly n vertices with multiplicities at most
    mult_max, in enumeration order; each layer is built once per process."""
    if n == 0:
        return (K0,)
    return tuple(_classes(_children(_layer(n - 1, mult_max), n, mult_max)))


def enumerate_graphs(n_max: int, mult_max: int = 1,
                     predicate: Callable[[MultiGraph], bool] | None = None
                     ) -> Iterator[MultiGraph]:
    """One canonically labelled representative per isomorphism class, in
    enumeration order.

    Covers every graph with at most n_max vertices and edge multiplicities at
    most mult_max.  `predicate` filters the output only; generation itself is
    exhaustive.
    """
    _check_enum_budget(n_max, mult_max)
    for n in range(n_max + 1):
        for g in _layer(n, mult_max):
            if predicate is None or predicate(g):
                yield g


def _grow_closed(member: Callable[[MultiGraph], bool], n_max: int,
                 mult_max: int,
                 minimal: Callable[[MultiGraph], bool] | None = None,
                 ) -> Iterator[tuple[list[MultiGraph], list[MultiGraph]]]:
    """Layers 0, 1, ... of a vertex-deletion-closed class, each split into
    (members, non-members) in enumeration order.

    Only members are extended: a member on n vertices stays a member after
    deleting any vertex, so the extensions of the members on n - 1 vertices
    cover every member on n vertices and every non-member all of whose
    vertex deletions are members.  Growth stops after an empty member layer
    or after layer n_max.  No budget cap applies; callers bound n_max
    themselves.

    Each child is judged before its canonical search: `member` is asked of
    the child itself, and a non-member is kept only when `minimal` accepts
    it, so none is kept without `minimal`.  Only kept children are
    searched (`_classes`), so `member` is asked once per child, not once
    per class, and the cost follows the class and the non-members kept.
    Layer 0 yields K0 as a non-member without asking `minimal`.
    """
    inside, outside = ([K0], []) if member(K0) else ([], [K0])
    for n in range(n_max + 1):
        yield inside, outside
        if not inside or n == n_max:
            return
        kept: list[MultiGraph] = []
        violators: list[MultiGraph] = []
        for child in _children(inside, n + 1, mult_max):
            if member(child):
                kept.append(child)
            elif minimal is not None and minimal(child):
                violators.append(child)
        inside, outside = _classes(kept), _classes(violators)


# -- serialization ---------------------------------------------------------

def format_graph_text(g: MultiGraph) -> str:
    """The plain text format: `n N` then one `e u v mult` line per edge pair."""
    lines = [f"n {g.n}"]
    for u, v, m in g.edges:
        lines.append(f"e {u} {v} {m}")
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> MultiGraph:
    n: int | None = None
    edges: list[tuple[int, int, int]] = []
    pairs = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise GraphFormatError(f"line {ln}: repeated n line")
            if len(parts) != 2:
                raise GraphFormatError(f"line {ln}: expected 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {ln}: bad vertex count {parts[1]!r}")
            if n < 0:
                raise GraphFormatError(f"line {ln}: negative vertex count")
            if n > MAX_GRAPH_SIZE:
                raise GraphFormatError(f"line {ln}: vertex count {n} above "
                                       f"the limit of {MAX_GRAPH_SIZE}")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {ln}: edge before n line")
            if len(parts) != 4:
                raise GraphFormatError(f"line {ln}: expected 'e <u> <v> <mult>'")
            try:
                u, v, m = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError(f"line {ln}: bad edge numbers")
            if u == v:
                raise GraphFormatError(f"line {ln}: loop at {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u < v < n):
                raise GraphFormatError(f"line {ln}: edge ({u},{v}) out of range")
            if (u, v) in pairs:
                raise GraphFormatError(f"line {ln}: duplicate pair ({u},{v})")
            if m < 1:
                raise GraphFormatError(f"line {ln}: multiplicity {m} < 1")
            pairs.add((u, v))
            edges.append((u, v, m))
        else:
            raise GraphFormatError(f"line {ln}: unknown directive {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing n line")
    return MultiGraph(n, tuple(sorted(edges)))


def to_graph6(g: MultiGraph) -> str:
    """graph6 encoding (simple graphs only)."""
    if not g.is_simple():
        raise GraphFormatError("graph6 encodes simple graphs only")
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise GraphFormatError("graph too large for graph6")
    bits = []
    dct = g.edge_dict
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in dct else 0)
    while len(bits) % 6:
        bits.append(0)
    body = "".join(chr(sum(b << (5 - k) for k, b in enumerate(bits[i:i + 6])) + 63)
                   for i in range(0, len(bits), 6))
    return head + body


def from_graph6(s: str) -> MultiGraph:
    s = s.strip()
    if not s:
        raise GraphFormatError("empty graph6 string")
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if s[0] == "~":
        if len(s) >= 4 and s[1] != "~":
            n = 0
            for c in s[1:4]:
                n = (n << 6) | (ord(c) - 63)
            rest = s[4:]
        else:
            raise GraphFormatError("unsupported graph6 size header")
    else:
        n = ord(s[0]) - 63
        rest = s[1:]
        if n > 62:  # 126 starts the long form
            raise GraphFormatError("bad graph6 header")
    if n < 0:
        raise GraphFormatError("bad graph6 header")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(rest) != need:
        raise GraphFormatError(f"graph6 body length {len(rest)}, expected {need}")
    bits = []
    for c in rest:
        x = ord(c) - 63
        if not (0 <= x < 64):
            raise GraphFormatError(f"bad graph6 byte {c!r}")
        bits.extend((x >> (5 - k)) & 1 for k in range(6))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j, 1))
            idx += 1
    return MultiGraph(n, tuple(sorted(edges)))


def format_graph_set(graphs: Iterable[MultiGraph], comment: str | None = None) -> str:
    """Several graphs in one text file, separated by blank lines."""
    parts = []
    if comment:
        parts.append("\n".join(f"# {line}" for line in comment.splitlines()))
    parts.extend(format_graph_text(g).rstrip("\n") for g in graphs)
    return "\n\n".join(parts) + "\n"


def _text_blocks(text: str) -> list[str]:
    """The non-empty pieces of text between lines blank after strip(), so
    a separator line may hold spaces or a carriage return."""
    return [b for b in re.split(r"\n\s*\n", text) if b.strip()]


def parse_graph_set(text: str) -> list[MultiGraph]:
    out = []
    for block in _text_blocks(text):
        lines = [ln for ln in block.splitlines()
                 if ln.strip() and not ln.lstrip().startswith("#")]
        if lines:
            out.append(parse_graph_text("\n".join(lines)))
    return out
