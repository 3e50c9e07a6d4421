"""Parametric graph families, finitely presented graph classes, and the
generic omnivore constructor.

Conventions pinned here and relied on by fixtures elsewhere:

* ternary_tree(1) is K_{1,3}; the root has three children and every other
  internal vertex has two, so all internal vertices have degree three.
  Depth counts edges from the root to the leaves.  Labels are assigned in
  BFS order, children left to right, which makes ternary_tree(k) the
  labeled prefix of ternary_tree(k+1).
* ternary_tree_apex_dual fixes one drawing of the apex tree (children left
  to right, apex in the outer face below the leaves), reads the faces off
  that rotation system, builds the dual from face adjacency, and finally
  subdivides one edge of every parallel pair so the result is simple.
  Face labels sort by boundary edge lists, subdivision vertices append in
  sorted order of their endpoint pairs; the labeling is deterministic.
* A family's growth is measured as vertices plus edge units, so the theta
  family (two vertices, growing multiplicity) still counts as strictly
  growing.
* Base indices are stored per family, never assumed.  The grid family
  starts at 2: its index-1 member is the single vertex, which every graph
  contains, and starting above the degenerate member keeps the scan
  arithmetic of the universality module honest.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

from .multigraph import (
    DEFAULT_ENUM_BUDGET,
    BudgetExceededError,
    MultiGraph,
    enum_key,
    enumerate_closed,
    format_graph_text,
    parse_graph_text,
)
from .relations import (
    Mode,
    Relation,
    contains,
    is_antichain,
    parse_relation,
    verify_minor_model,
    verify_subgraph_map,
)


# -- plain shapes --------------------------------------------------------------

def grid(k: int) -> MultiGraph:
    """The k-by-k grid: vertex (r, c) is labeled r*k + c."""
    if k < 1:
        raise ValueError("grid index must be at least 1")
    edges = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                edges.append((r * k + c, r * k + c + 1))
            if r + 1 < k:
                edges.append((r * k + c, (r + 1) * k + c))
    return MultiGraph.build(k * k, edges)


def star(k: int) -> MultiGraph:
    if k < 0:
        raise ValueError("star index must be at least 0")
    return MultiGraph.build(k + 1, [(0, i) for i in range(1, k + 1)])


def theta(k: int) -> MultiGraph:
    """Two vertices joined by k parallel edges."""
    if k < 1:
        raise ValueError("theta index must be at least 1")
    return MultiGraph.build(2, [(0, 1, k)])


def path(n: int) -> MultiGraph:
    if n < 0:
        raise ValueError("path order must be at least 0")
    return MultiGraph.build(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> MultiGraph:
    if n < 0:
        raise ValueError("complete order must be at least 0")
    return MultiGraph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m: int, n: int) -> MultiGraph:
    if m < 0 or n < 0:
        raise ValueError("part sizes must be at least 0")
    return MultiGraph.build(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def fan(n: int) -> MultiGraph:
    """Hub 0 joined to every vertex of the path 1..n-1; n vertices total."""
    if n < 1:
        raise ValueError("fan order must be at least 1")
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n - 1)]
    return MultiGraph.build(n, edges)


# -- ternary trees and their apex variants --------------------------------------

def _ternary_levels(k: int):
    """Level lists and the (left-to-right) children map of the depth-k tree."""
    levels = [[0]]
    children: dict[int, list[int]] = {0: []}
    nxt = 1
    for depth in range(1, k + 1):
        layer = []
        for p in levels[-1]:
            for _ in range(3 if p == 0 else 2):
                children[p].append(nxt)
                children[nxt] = []
                layer.append(nxt)
                nxt += 1
        levels.append(layer)
    return levels, children


def ternary_tree(k: int) -> MultiGraph:
    if k < 1:
        raise ValueError("ternary tree depth must be at least 1")
    levels, children = _ternary_levels(k)
    n = sum(len(l) for l in levels)
    edges = [(p, c) for p, cs in children.items() for c in cs]
    return MultiGraph.build(n, edges)


def ternary_tree_apex(k: int) -> MultiGraph:
    if k < 2:
        raise ValueError("apex tree index starts at 2")
    levels, children = _ternary_levels(k)
    n = sum(len(l) for l in levels)
    edges = [(p, c) for p, cs in children.items() for c in cs]
    edges += [(n, leaf) for leaf in levels[k]]
    return MultiGraph.build(n + 1, edges)


def _apex_rotation(k: int):
    """Cyclic neighbor orders realizing the fixed drawing: root at the top,
    children left to right, apex below the leaves in the outer face."""
    levels, children = _ternary_levels(k)
    parent = {c: p for p, cs in children.items() for c in cs}
    apex = sum(len(l) for l in levels)
    rot: dict[int, tuple[int, ...]] = {0: tuple(children[0])}
    for depth in range(1, k):
        for v in levels[depth]:
            rot[v] = (parent[v], children[v][0], children[v][1])
    for leaf in levels[k]:
        rot[leaf] = (parent[leaf], apex)
    rot[apex] = tuple(reversed(levels[k]))
    return rot, levels, children, apex


def _trace_faces(rot: dict[int, tuple[int, ...]]):
    """Orbits of the dart successor map; for a planar rotation system these
    are exactly the faces of the drawing."""
    nxt = {}
    for v, ring in rot.items():
        d = len(ring)
        for i, u in enumerate(ring):
            nxt[(u, v)] = (v, ring[(i + 1) % d])
    faces, seen = [], set()
    for dart in sorted(nxt):
        if dart in seen:
            continue
        walk, cur = [], dart
        while cur not in seen:
            seen.add(cur)
            walk.append(cur)
            cur = nxt[cur]
        faces.append(tuple(walk))
    return faces


def _apex_dual_labeled(k: int) -> dict:
    if k < 2:
        raise ValueError("apex dual index starts at 2")
    host = ternary_tree_apex(k)
    rot, levels, children, apex = _apex_rotation(k)
    raw = _trace_faces(rot)
    if host.n - host.edge_count + len(raw) != 2:
        raise AssertionError("the fixed rotation system stopped being planar")
    bounds = [sorted(tuple(sorted(d)) for d in f) for f in raw]
    order = sorted(range(len(raw)), key=lambda i: bounds[i])
    bounds = [bounds[i] for i in order]
    n_faces = len(bounds)

    at: dict[tuple[int, int], list[int]] = {}
    for i, es in enumerate(bounds):
        for e in set(es):
            at.setdefault(e, []).append(i)
    if any(len(fs) != 2 for fs in at.values()):
        raise AssertionError("an edge failed to separate two distinct faces")

    pairs: dict[tuple[int, int], int] = {}
    for fs in at.values():
        key = (min(fs), max(fs))
        pairs[key] = pairs.get(key, 0) + 1
    if any(m > 2 for m in pairs.values()):
        raise AssertionError("a face pair shares more than two edges")

    leaf_pairs = []
    for es in bounds:
        touching = sorted(e for e in set(es) if apex in e)
        if len(touching) != 2:
            raise AssertionError("every face must meet the apex exactly twice")
        leaf_pairs.append(frozenset(v for e in touching for v in e if v != apex))

    doubles = sorted(key for key, m in pairs.items() if m == 2)
    edges = list(pairs)
    for idx, (i, j) in enumerate(doubles):
        s = n_faces + idx
        edges += [(i, s), (s, j)]
    graph = MultiGraph.build(n_faces + len(doubles), edges)
    return {
        "graph": graph,
        "n_faces": n_faces,
        "leaf_pairs": leaf_pairs,
        "doubles": doubles,
        "leaves": levels[k],
        "children": children,
    }


def ternary_tree_apex_dual(k: int) -> MultiGraph:
    return _apex_dual_labeled(k)["graph"]


def apex_dual_nesting_model(k: int) -> tuple[frozenset[int], ...]:
    """Branch sets embedding ternary_tree_apex_dual(k) into the next index.

    Faces correspond along the construction: the face between consecutive
    leaves x, y reappears between the last child of x and the first child
    of y, the outer face stays outer, and the subdivision vertex of a
    parallel pair maps to the new face between the two children of the
    leaf those faces share.  All branch sets are singletons.
    """
    small = _apex_dual_labeled(k)
    big = _apex_dual_labeled(k + 1)
    kids = big["children"]
    leaves = small["leaves"]
    pos = {l: i for i, l in enumerate(leaves)}
    outer_pair = frozenset((leaves[0], leaves[-1]))
    by_pair = {p: i for i, p in enumerate(big["leaf_pairs"])}

    def face_target(pair: frozenset[int]) -> int:
        if pair == outer_pair:
            x, y = leaves[0], leaves[-1]
            return by_pair[frozenset((min(kids[x]), max(kids[y])))]
        x, y = sorted(pair, key=pos.__getitem__)
        return by_pair[frozenset((max(kids[x]), min(kids[y])))]

    model = [face_target(p) for p in small["leaf_pairs"]]
    for i, j in small["doubles"]:
        shared = small["leaf_pairs"][i] & small["leaf_pairs"][j]
        if len(shared) != 1:
            raise AssertionError("parallel faces must share exactly one leaf")
        (leaf,) = shared
        model.append(by_pair[frozenset(kids[leaf])])
    if len(set(model)) != len(model):
        raise AssertionError("face correspondence produced a collision")
    return tuple(frozenset((v,)) for v in model)


# -- parametric families ---------------------------------------------------------

def growth_size(g: MultiGraph) -> int:
    """Size measure for the strict-growth requirement: vertices plus units."""
    return g.n + g.total_units


@dataclass(frozen=True)
class ParametricFamily:
    """A named graph sequence, monotone under its declared relation.

    step_witness(k), when provided, returns checkable evidence that member
    k sits below member k+1: ("subgraph", image tuple) or ("minor", branch
    sets).  A subgraph witness certifies every relation in the containment
    lattice; a minor witness certifies the minor relation.
    """

    name: str
    base_index: int
    relation: Relation
    generator: Callable[[int], MultiGraph] = field(repr=False)
    step_witness: Callable[[int], tuple] | None = field(default=None, repr=False)

    def member(self, k: int) -> MultiGraph:
        if k < self.base_index:
            raise ValueError(
                f"family {self.name} starts at index {self.base_index}")
        return self.generator(k)

    def prefix(self, count: int) -> list[MultiGraph]:
        return [self.member(self.base_index + i) for i in range(count)]


def verify_family_step(fam: ParametricFamily, k: int) -> bool:
    """Check member k <= member k+1, preferring the declared witness."""
    small, big = fam.member(k), fam.member(k + 1)
    if fam.step_witness is not None:
        kind, data = fam.step_witness(k)
        if kind == "subgraph":
            return verify_subgraph_map(small, big, data)
        if kind == "minor":
            if fam.relation is not Relation.MINOR:
                raise ValueError("minor witnesses certify only the minor relation")
            return verify_minor_model(small, big, data, mode=Mode.SIMPLE)
        raise ValueError(f"unknown witness kind {kind!r}")
    return contains(fam.relation, small, big)


def _identity_step(fam_generator):
    def witness(k: int):
        return ("subgraph", tuple(range(fam_generator(k).n)))
    return witness


def _grid_step(k: int):
    return ("subgraph", tuple(r * (k + 1) + c for r in range(k) for c in range(k)))


def _ternary_apex_step(k: int):
    # absorb both children of every old leaf; the host apex edge to either
    # child then realizes the pattern's apex edge to the leaf
    levels, _ = _ternary_levels(k)
    _, kids_next = _ternary_levels(k + 1)
    n_small = sum(len(l) for l in levels)
    big_apex = n_small + 2 * len(levels[k])
    old_leaves = set(levels[k])
    sets = [frozenset((v, *kids_next[v])) if v in old_leaves else frozenset((v,))
            for v in range(n_small)]
    sets.append(frozenset((big_apex,)))
    return ("minor", tuple(sets))


def _apex_dual_step(k: int):
    return ("minor", apex_dual_nesting_model(k))


FAMILIES: dict[str, ParametricFamily] = {}


def _register(fam: ParametricFamily) -> ParametricFamily:
    FAMILIES[fam.name] = fam
    return fam


GRID_FAMILY = _register(ParametricFamily(
    "grid", 2, Relation.MINOR, grid, _grid_step))
TERNARY_TREE_FAMILY = _register(ParametricFamily(
    "ternary_tree", 1, Relation.MINOR, ternary_tree, _identity_step(ternary_tree)))
TERNARY_TREE_APEX_FAMILY = _register(ParametricFamily(
    "ternary_tree_apex", 2, Relation.MINOR, ternary_tree_apex, _ternary_apex_step))
TERNARY_TREE_APEX_DUAL_FAMILY = _register(ParametricFamily(
    "ternary_tree_apex_dual", 2, Relation.MINOR, ternary_tree_apex_dual,
    _apex_dual_step))
STAR_FAMILY = _register(ParametricFamily(
    "star", 1, Relation.IMMERSION, star, _identity_step(star)))
THETA_FAMILY = _register(ParametricFamily(
    "theta", 1, Relation.IMMERSION, theta, _identity_step(theta)))
PATH_FAMILY = _register(ParametricFamily(
    "path", 1, Relation.MINOR, path, _identity_step(path)))
COMPLETE_FAMILY = _register(ParametricFamily(
    "complete", 1, Relation.MINOR, complete, _identity_step(complete)))


def family_by_name(name: str) -> ParametricFamily:
    try:
        return FAMILIES[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; registered: {sorted(FAMILIES)}")


# -- finitely presented classes ---------------------------------------------------

@dataclass(frozen=True)
class ClassSpec:
    """A graph class presented by the relation it is closed under and the
    finite list of forbidden graphs; mult_cap bounds enumeration in multi
    mode and is ignored in simple mode."""

    relation: Relation
    obstructions: tuple[MultiGraph, ...]
    mode: Mode = Mode.SIMPLE
    mult_cap: int = 2

    def __post_init__(self):
        top = DEFAULT_ENUM_BUDGET.max_multiplicity
        if not 1 <= self.mult_cap <= top:
            raise ValueError(f"mult_cap {self.mult_cap!r}: the cap must be an "
                             f"integer in 1..{top}")
        if not is_antichain(self.relation, self.obstructions):
            raise ValueError("obstruction list must be an antichain")

    def member(self, g: MultiGraph) -> bool:
        return not any(contains(self.relation, o, g, mode=self.mode)
                       for o in self.obstructions)


def format_class_spec(spec: ClassSpec) -> str:
    head = [f"relation {spec.relation.value}"]
    if spec.mode is Mode.SIMPLE:
        head.append("mode simple")
    else:
        head.append(f"mode multi {spec.mult_cap}")
    blocks = [format_graph_text(o).rstrip("\n") for o in spec.obstructions]
    return "\n".join(head) + "\n\n" + "\n\n".join(blocks) + "\n"


def parse_class_spec(text: str) -> ClassSpec:
    chunks = [c for c in text.split("\n\n") if c.strip()]
    if not chunks:
        raise ValueError("empty class file")
    relation = None
    mode, cap = Mode.SIMPLE, 2
    for raw in chunks[0].splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "relation" and len(parts) == 2:
            relation = parse_relation(parts[1])
        elif parts[0] == "mode" and len(parts) in (2, 3) \
                and parts[1] in ("simple", "multi"):
            mode = Mode(parts[1])
            if len(parts) == 3:
                cap = int(parts[2]) if parts[2].isdecimal() else 0
                top = DEFAULT_ENUM_BUDGET.max_multiplicity
                if not 1 <= cap <= top:
                    raise ValueError(f"bad class header line: {raw!r}; the "
                                     f"cap must be an integer in 1..{top}")
        else:
            raise ValueError(f"bad class header line: {raw!r}")
    if relation is None:
        raise ValueError("class header must name a relation")
    obstructions = tuple(parse_graph_text(c) for c in chunks[1:])
    if not obstructions:
        raise ValueError("class file lists no obstructions")
    return ClassSpec(relation, obstructions, mode, cap)


CLASS_SPECS: dict[str, ClassSpec] = {
    "forests": ClassSpec(Relation.MINOR, (complete(3),)),
    "outerplanar": ClassSpec(Relation.MINOR, (complete(4), complete_bipartite(2, 3))),
}


# -- the omnivore constructor -----------------------------------------------------

@functools.lru_cache(maxsize=128)
def omnivore_step(spec: ClassSpec, k: int, prev: MultiGraph | None = None,
                  n_budget: int | None = None) -> MultiGraph:
    """The enumeration-least member of the class sitting above prev and
    above every member with at most k vertices."""
    if k < 1:
        raise ValueError("omnivore index starts at 1")
    mult_cap = 1 if spec.mode is Mode.SIMPLE else spec.mult_cap
    if n_budget is None:
        n_budget = (DEFAULT_ENUM_BUDGET.max_simple_vertices
                    if mult_cap == 1 else DEFAULT_ENUM_BUDGET.max_multi_vertices)
    if k > n_budget:
        raise BudgetExceededError(
            "coverage level exceeds the enumeration budget",
            {"k": k, "vertex_budget": n_budget})
    targets = sorted(enumerate_closed(k, mult_cap, spec.member),
                     key=enum_key, reverse=True)
    frontier = 0
    for cand in enumerate_closed(n_budget, mult_cap, spec.member):
        frontier = cand.n
        if prev is not None and not contains(spec.relation, prev, cand,
                                             mode=spec.mode):
            continue
        if all(contains(spec.relation, t, cand, mode=spec.mode)
               for t in targets):
            return cand
    raise BudgetExceededError(
        "enumeration budget ran out before a covering member appeared",
        {"k": k, "vertex_budget": n_budget, "frontier_vertices": frontier})


def omnivore_chain(spec: ClassSpec, length: int,
                   n_budget: int | None = None) -> list[MultiGraph]:
    out: list[MultiGraph] = []
    prev = None
    for k in range(1, length + 1):
        prev = omnivore_step(spec, k, prev, n_budget=n_budget)
        out.append(prev)
    return out
