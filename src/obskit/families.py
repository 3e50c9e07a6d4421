"""Parametric graph families, class-spec files, and the omnivore
construction.  The omnivore takes a class as a (relation, member) pair,
the shape of `obstructions.BUILTIN_CLASSES` and of a parsed class-spec file.

Conventions pinned here and relied on by fixtures elsewhere:

* ternary_tree(1) is K_{1,3}; the root has three children and every other
  internal vertex has two, so all internal vertices have degree three.
  Depth counts edges from the root to the leaves.  Labels are assigned in
  BFS order, children left to right, which makes ternary_tree(k) the
  labeled prefix of ternary_tree(k+1).
* ternary_tree_apex_dual fixes one drawing of the apex tree (children left
  to right, apex in the outer face below the leaves).  Its faces have a
  closed form, one per pair of cyclically consecutive leaves; Euler's
  formula counts E - V + 2 = L faces for L leaves, so there are no others.
  The dual is built from face adjacency, and one edge of every parallel
  pair is subdivided so the result is simple.  Face labels sort by
  boundary edge lists, subdivision vertices append in sorted order of
  their endpoint pairs; the labeling is deterministic.
* A family's growth is measured as vertices plus edge units, so the theta
  family (two vertices, growing multiplicity) still counts as strictly
  growing.
* Base indices are stored per family, never assumed.  The grid family
  starts at 2: its index-1 member is the single vertex, which every graph
  contains, and starting above the degenerate member keeps the scan
  arithmetic of the universality module honest.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .multigraph import (
    MAX_GRAPH_SIZE,
    MAX_MULTIPLICITY,
    BudgetExceededError,
    MultiGraph,
    _check_enum_budget,
    _grow_closed,
    _text_blocks,
    _vertex_cap,
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

def _check_size(member: str, size: int) -> None:
    """Refuse, before building it, a member whose vertices plus edge pairs
    (`size`, in closed form) exceed `MAX_GRAPH_SIZE`."""
    if size > MAX_GRAPH_SIZE:
        raise ValueError(f"{member} exceeds the limit of {MAX_GRAPH_SIZE} "
                         f"vertices plus edge pairs")


def grid(k: int) -> MultiGraph:
    """The k-by-k grid: vertex (r, c) is labeled r*k + c."""
    if k < 1:
        raise ValueError("grid index must be at least 1")
    _check_size(f"grid({k})", 3 * k * k - 2 * k)
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
    _check_size(f"star({k})", 2 * k + 1)
    return MultiGraph.build(k + 1, [(0, i) for i in range(1, k + 1)])


def theta(k: int) -> MultiGraph:
    """Two vertices joined by k parallel edges."""
    if k < 1:
        raise ValueError("theta index must be at least 1")
    return MultiGraph.build(2, [(0, 1, k)])


def path(n: int) -> MultiGraph:
    if n < 0:
        raise ValueError("path order must be at least 0")
    _check_size(f"path({n})", max(2 * n - 1, 0))
    return MultiGraph.build(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> MultiGraph:
    if n < 0:
        raise ValueError("complete order must be at least 0")
    _check_size(f"complete({n})", n + n * (n - 1) // 2)
    return MultiGraph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m: int, n: int) -> MultiGraph:
    if m < 0 or n < 0:
        raise ValueError("part sizes must be at least 0")
    _check_size(f"complete_bipartite({m}, {n})", m + n + m * n)
    return MultiGraph.build(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def fan(n: int) -> MultiGraph:
    """Hub 0 joined to every vertex of the path 1..n-1; n vertices total."""
    if n < 1:
        raise ValueError("fan order must be at least 1")
    _check_size(f"fan({n})", max(3 * n - 3, 1))
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n - 1)]
    return MultiGraph.build(n, edges)


# -- ternary trees and their apex variants --------------------------------------

def _ternary_levels(k: int, member: str = "ternary_tree",
                    size=lambda leaves: 4 * leaves - 5):
    """Level lists and the (left-to-right) children map of the depth-k tree.

    The tree has L = 3 * 2**(k-1) leaves, 2L - 2 vertices and 2L - 3 edges.
    `size(L)` counts the vertices plus edge pairs of the member built on it
    (the tree's by default), and a member above `MAX_GRAPH_SIZE` is refused
    before anything is built.
    """
    # past depth 20 the tree alone is above the limit, so L need not grow
    _check_size(f"{member}({k})", size(3 << min(k - 1, 20)))
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
    levels, children = _ternary_levels(k, "ternary_tree_apex",
                                       lambda leaves: 5 * leaves - 4)
    n = sum(len(l) for l in levels)
    edges = [(p, c) for p, cs in children.items() for c in cs]
    edges += [(n, leaf) for leaf in levels[k]]
    return MultiGraph.build(n + 1, edges)


def _apex_faces(k: int):
    """The faces of the fixed drawing of ternary_tree_apex(k).

    With the leaves left to right and the last wrapping round to the first,
    the face after leaf x is bounded by the apex edges of x and of the next
    leaf y and by the tree path from x to y, the symmetric difference of
    their root paths.  Returns the faces (sorted edge tuples, sorted), the
    labels of the faces after and before each leaf, the leaves in sorted
    order of those two labels (the two faces share the leaf's apex and
    parent edges), and the children map.
    """
    if k < 2:
        raise ValueError("apex dual index starts at 2")
    # the dual has a face and a subdivision vertex per leaf, and 4L - 3
    # edge pairs: one per tree edge (a leaf's apex edge repeats the pair of
    # its tree edge) and two per subdivision vertex
    levels, children = _ternary_levels(k, "ternary_tree_apex_dual",
                                       lambda leaves: 6 * leaves - 3)
    leaves, apex = levels[k], sum(len(l) for l in levels)
    parent = {c: p for p, cs in children.items() for c in cs}

    def root_path(v: int) -> set[tuple[int, int]]:
        edges = set()
        while v:
            edges.add((parent[v], v))
            v = parent[v]
        return edges

    nxt = leaves[1:] + leaves[:1]
    rings = [tuple(sorted((root_path(x) ^ root_path(y)) | {(x, apex), (y, apex)}))
             for x, y in zip(leaves, nxt)]
    faces = sorted(rings)
    label = {ring: i for i, ring in enumerate(faces)}
    after = {x: label[ring] for x, ring in zip(leaves, rings)}
    before = {y: after[x] for x, y in zip(leaves, nxt)}
    subdivided = sorted(leaves, key=lambda x: sorted((before[x], after[x])))
    return faces, after, before, subdivided, children


def ternary_tree_apex_dual(k: int) -> MultiGraph:
    """One dual vertex per face and one dual edge per shared primal edge;
    each leaf's parallel pair is subdivided, in sorted order of the pairs."""
    faces, after, before, subdivided, _ = _apex_faces(k)
    at: dict[tuple[int, int], list[int]] = {}
    for i, face in enumerate(faces):
        for e in face:
            at.setdefault(e, []).append(i)
    edges = {tuple(fs) for fs in at.values()}
    for s, x in enumerate(subdivided, start=len(faces)):
        edges |= {(before[x], s), (s, after[x])}
    return MultiGraph.build(len(faces) + len(subdivided), edges)


def apex_dual_nesting_model(k: int) -> tuple[frozenset[int], ...]:
    """Branch sets embedding ternary_tree_apex_dual(k) into the next index.

    The face after leaf x, between x and the next leaf y, reappears between
    the last child of x and the first child of y, that is after the last
    child of x; the subdivision vertex at leaf x maps to the new face
    between the two children of x.  All branch sets are singletons.
    """
    _, after, _, subdivided, _ = _apex_faces(k)
    _, big_after, _, _, kids = _apex_faces(k + 1)
    targets = [big_after[kids[x][-1]] for x in sorted(after, key=after.get)]
    targets += [big_after[kids[x][0]] for x in subdivided]
    return tuple(frozenset((v,)) for v in targets)


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
        if not 1 <= self.mult_cap <= MAX_MULTIPLICITY:
            raise ValueError(f"mult_cap {self.mult_cap!r}: the cap must be an "
                             f"integer in 1..{MAX_MULTIPLICITY}")
        if not is_antichain(self.relation, self.obstructions, mode=self.mode):
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
    chunks = _text_blocks(text)
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
                if not 1 <= cap <= MAX_MULTIPLICITY:
                    raise ValueError(f"bad class header line: {raw!r}; the cap "
                                     f"must be an integer in 1..{MAX_MULTIPLICITY}")
        else:
            raise ValueError(f"bad class header line: {raw!r}")
    if relation is None:
        raise ValueError("class header must name a relation")
    obstructions = tuple(parse_graph_text(c) for c in chunks[1:])
    if not obstructions:
        raise ValueError("class file lists no obstructions")
    return ClassSpec(relation, obstructions, mode, cap)


# -- the omnivore constructor -----------------------------------------------------

def omnivore_chain(relation, member, length, mult_max=1) -> list[MultiGraph]:
    """Steps 1..length of the omnivore of a class closed under relation:
    step k is the enumeration-least member above step k - 1 and above every
    member on at most k vertices.  One growth serves every step; step k is
    step k - 1 or comes after it, so each scan resumes there.  The mode
    comes from mult_max, as in `compute_obstructions`."""
    mode = Mode.SIMPLE if mult_max == 1 else Mode.MULTI
    budget = _vertex_cap(mult_max)
    _check_enum_budget(budget, mult_max)
    layers = (inside for inside, _ in _grow_closed(member, budget, mult_max))
    grown: list[MultiGraph] = []  # the member layers so far, in enumeration order

    def pull() -> bool:
        layer = next(layers, [])
        grown.extend(layer)
        return bool(layer)

    chain: list[MultiGraph] = []
    at = 0
    for k in range(1, length + 1):
        if k > budget:
            raise BudgetExceededError(
                "coverage level exceeds the enumeration budget",
                {"k": k, "vertex_budget": budget})
        while (not grown or grown[-1].n < k) and pull():
            pass
        targets = [t for t in grown if t.n <= k][::-1]  # largest first
        while at < len(grown) or pull():
            cand = grown[at]
            if (not chain or contains(relation, chain[-1], cand, mode=mode)) \
                    and all(contains(relation, t, cand, mode=mode) for t in targets):
                break
            at += 1
        else:
            raise BudgetExceededError(
                "enumeration budget ran out before a covering member appeared",
                {"k": k, "vertex_budget": budget,
                 "frontier_vertices": grown[-1].n if grown else 0})
        chain.append(cand)
    return chain
