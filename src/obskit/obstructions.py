"""Obstruction sets computed exhaustively inside a bounded graph universe.

A report lists every graph in the universe that violates a containment-closed
predicate while every single-step reduction of it satisfies the predicate.
Single steps are relation-specific and come from the one generator in
`relations`: vertex deletion and edge deletion always, plus edge contraction
for minors, dissolution of an edge-degree-2 vertex with two distinct
neighbours for topological minors (contracting an arbitrary edge is not a
topological-minor step), and lifting for immersions.  Because any proper
minor (topological minor, immersion) of a graph is reachable through single
steps, step-minimal violators are exactly the minimal ones, and that
equivalence is itself re-checked on small universes by the tests.

Layers grow inside the class instead of covering the whole universe.
Vertex deletion is a single step of every relation, so a closed class is
closed under it, and every member or minimal violator on n vertices is a
one-vertex extension of a member on n - 1 vertices.  The scan takes its
layers from `multigraph._grow_closed`, the grower the omnivore construction
uses too: it extends only the members, stops after an empty member layer,
and judges each child before its canonical search, asking the predicate
once per child, not per class.  The scan hands the grower its
step-minimality test, so only members and step-minimal violators are
searched and the many other violators of a layer are dropped unsearched;
the omnivore hands it none and keeps only members.

Reports are complete only up to their (n_max, mult_max) bound: an obstruction
with more vertices is invisible, so every report carries its bound and a note
saying so.  Predicates are assumed closed.  A deterministic sample of members
has all of its reductions re-checked, and a deterministic sample of random
labelled graphs is searched for members the grown layers missed; either
counterexample aborts the scan rather than producing a garbage antichain.

The forest predicates run on every scanned graph and every reduction, so
they share `multigraph._forest`, a count of edges against components on
neighbour masks.  Outerplanarity runs natively too: a Hamiltonian-cycle
search on each block (`multigraph._block_sets`), and only for graphs that
are neither forests nor too dense.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from importlib import resources

from .multigraph import (
    MultiGraph,
    _block_sets,
    _check_enum_budget,
    _forest,
    _grow_closed,
    canonical_form,
    delete_vertices,
    parse_graph_set,
)
from .relations import Mode, Relation, _single_steps, is_antichain, parse_relation

#: members whose reductions are re-checked, and random labelled graphs
#: searched for unreached members, per scan; both draws are seeded
_CLOSURE_SAMPLES = 100
_CLOSURE_SEED = 0


class NonClosedPredicateError(ValueError):
    """A sampled member has a reduction that leaves the class."""

    def __init__(self, member: MultiGraph, reduct: MultiGraph, relation):
        self.member = member
        self.reduct = reduct
        self.relation = relation
        super().__init__(
            f"predicate is not {relation.value}-closed: a member on "
            f"{member.n} vertices has a single-step reduction on "
            f"{reduct.n} vertices outside the class")


@dataclass(frozen=True)
class ObstructionReport:
    relation: Relation
    mode: Mode
    class_desc: str
    n_max: int
    mult_max: int
    obstructions: tuple[MultiGraph, ...]
    note: str

    def __iter__(self):
        return iter(self.obstructions)


def compute_obstructions(relation, predicate, n_max, mult_max=1, *,
                         class_desc=None) -> ObstructionReport:
    """All step-minimal predicate violators with at most n_max vertices,
    canonically labelled and in enumeration order.

    The layers come from `_grow_closed`: layer n is the one-vertex
    extensions of the members on n - 1 vertices, which covers every member
    and every minimal violator because the class is closed under vertex
    deletion.  Each child is judged before its canonical search: the
    predicate is asked of the child, and a violator is kept only when every
    single-step reduction satisfies the predicate, bailing out at the first
    that does not.  Only kept children are searched, so the cost follows
    the class and its one-vertex boundary, not the size of the universe.
    The size caps of `enumerate_graphs` still apply.
    """
    relation = parse_relation(relation)
    mode = Mode.SIMPLE if mult_max == 1 else Mode.MULTI
    desc = class_desc or getattr(predicate, "__name__", "predicate")
    _check_enum_budget(n_max, mult_max)

    def step_minimal(g):
        return all(predicate(r) for r in _single_steps(g, relation, mode))

    members = []
    found = []
    for inside, outside in _grow_closed(predicate, n_max, mult_max,
                                        step_minimal):
        members += inside
        found += outside

    rng = random.Random(_CLOSURE_SEED)
    sample = (members if len(members) <= _CLOSURE_SAMPLES
              else rng.sample(members, _CLOSURE_SAMPLES))
    for m in sample:
        for r in _single_steps(m, relation, mode):
            if not predicate(r):
                raise NonClosedPredicateError(m, r, relation)
    _check_unreached_members(predicate, members, n_max, mult_max, relation)

    if not is_antichain(relation, found, mode=mode):
        raise AssertionError(
            f"step-minimal set for {desc} is not an antichain; "
            "the predicate cannot be containment-closed")
    return ObstructionReport(
        relation=relation, mode=mode, class_desc=desc,
        n_max=n_max, mult_max=mult_max, obstructions=tuple(found),
        note=f"complete up to n<={n_max}, mult<={mult_max}; "
             "larger obstructions are invisible at this bound")


def _check_unreached_members(predicate, members, n_max, mult_max, relation):
    """Raise if a random labelled graph is a member the grown layers missed.

    Such a member has a vertex deletion outside the class: deleting a
    vertex of largest (edge degree, distinct neighbours) from an unreached
    member leaves an unreached graph, so the walk down these deletions
    meets a non-member before it runs out of vertices.
    """
    reached = {canonical_form(m) for m in members}
    draw = random.Random(_CLOSURE_SEED)
    for _ in range(_CLOSURE_SAMPLES):
        n = draw.randint(0, n_max)
        g = MultiGraph(n, tuple(
            (u, v, m) for u, v in itertools.combinations(range(n), 2)
            if (m := draw.randint(0, mult_max))))
        if not predicate(g) or canonical_form(g) in reached:
            continue
        while predicate(g):
            member = g
            top = max(range(g.n), key=lambda v: (member.edge_degrees[v],
                                                 member.degrees[v]))
            g = delete_vertices(member, (top,))
        raise NonClosedPredicateError(member, g, relation)


# -- built-in class predicates --------------------------------------------------


def is_forest(g) -> bool:
    """No cycles; a parallel pair already counts as a two-edge cycle."""
    return _forest(g)


def is_outerplanar(g) -> bool:
    """Drawable with every vertex on the outer face.  Equivalent to
    excluding K4 and K_{2,3} as minors, which is exactly what the
    obstruction scan recovers.

    Two exact exits come first: a forest is outerplanar, and an
    outerplanar graph on n >= 2 vertices (as every non-forest is) has at
    most 2n - 3 adjacent pairs.  Otherwise the graph is outerplanar exactly
    when each of its blocks is (`_outerplanar_block`)."""
    if _forest(g):
        return True
    if len(g.edges) > 2 * g.n - 3:
        return False
    return all(_outerplanar_block(g, block) for block in _block_sets(g)
               if len(block) > 2)


def _outerplanar_block(g, block: frozenset[int]) -> bool:
    """Whether the 2-connected block of g on these vertices is outerplanar.

    Such a block is outerplanar exactly when it has at most 2k - 3 edges on
    its k vertices and a Hamiltonian cycle whose chords pairwise do not
    cross: that cycle is the outer face, the chords are drawn inside it.
    An outerplanar 2-connected graph has only the one Hamiltonian cycle,
    so the first cycle the search finds decides.
    """
    edges = [(u, v) for u, v, _ in g.edges if u in block and v in block]
    if len(edges) > 2 * len(block) - 3:
        return False
    inside = sum(1 << v for v in block)
    nmask = g.neighbor_masks
    start = min(block)
    cycle = [start]

    def extend(v: int, seen: int) -> bool:
        if seen == inside:
            return nmask[v] >> start & 1 == 1
        free = nmask[v] & inside & ~seen
        while free:
            low = free & -free
            w = low.bit_length() - 1
            cycle.append(w)
            if extend(w, seen | low):
                return True
            cycle.pop()
            free ^= low
        return False

    if not extend(start, 1 << start):
        return False
    pos = {v: i for i, v in enumerate(cycle)}
    chords = []
    for u, v in edges:
        a, b = sorted((pos[u], pos[v]))
        if b - a not in (1, len(cycle) - 1):
            chords.append((a, b))
    return not any(a < c < b < d for a, b in chords for c, d in chords)


def is_apex_forest(g) -> bool:
    """Some single vertex deletion (or none) leaves a forest."""
    return any(_forest(g, gone) for gone in [0] + [1 << v for v in range(g.n)])


def is_subcubic_forest(g) -> bool:
    return is_forest(g) and max(g.edge_degrees, default=0) <= 3


def is_star_or_edgeless(g) -> bool:
    """Immersion-downward closure of the stars and the edgeless graphs.

    The literal class (a star, or no edges at all) is not closed: deleting an
    edge of a star strands a leaf.  The closure is the simple graphs with at
    most one vertex meeting two or more edges, i.e. at most one star plus
    single edges and isolated vertices.
    """
    if any(m > 1 for *_, m in g.edges):
        return False
    return sum(1 for d in g.edge_degrees if d >= 2) <= 1


def is_theta_like(g) -> bool:
    """Downward closure of the two-vertex multigraphs.

    The closure brings in the two-vertex edgeless graph (delete the edge of
    K2), so membership is simply order at most two.
    """
    return g.n <= 2


#: name -> (default relation, predicate); the CLI's --class choices.
BUILTIN_CLASSES = {
    "forests": (Relation.MINOR, is_forest),
    "outerplanar": (Relation.MINOR, is_outerplanar),
    "apex_forest": (Relation.MINOR, is_apex_forest),
    "subcubic_forest": (Relation.IMMERSION, is_subcubic_forest),
    "star_or_edgeless": (Relation.IMMERSION, is_star_or_edgeless),
    "theta_like": (Relation.IMMERSION, is_theta_like),
}


# -- packaged golden fixtures ----------------------------------------------------


def fixture_graphs(name: str) -> list[MultiGraph]:
    """Graphs from a packaged fixture file under fixtures/."""
    text = resources.files(__package__).joinpath("fixtures", name).read_text()
    return parse_graph_set(text)
