"""Decision procedures for four containment quasi-orders on multigraphs.

`contains(rel, h, g)` asks whether the host g contains the pattern h under
the chosen relation.  All four searches are exact and deterministic.
Subgraph, topological-minor, and immersion queries share one backtracking
placement search, `_embed`, which tries host vertices in ascending label
order; the latter two only add a routing step for the pattern's edge units
once every vertex is placed.  Immersion routing prunes on residual room:
a path may pass through a host vertex only while the unused capacity left
there covers the units still to be routed at it, a necessary condition
that never changes an answer.  Minor queries take three steps (see
`_minor`): the subgraph shortcut; then, on simple hosts of at least eight
vertices after reduction, the topological-minor routing capped at a fixed
number of steps, whose positive answer is a minor model and whose
completed negative answer is exact for patterns of maximum degree at most
3; then a walk down the host's single-step reductions with `_walk`.  The
walk visits each (normalized) minor class of the host at most once, which
bounds the cost of a negative answer; under lifts, the same walk is the
immersion oracle `immersion_by_liftings`.  Pattern and host sizes
are capped (8 and 16 vertices by default); callers that know their
instance is tractable may raise the caps explicitly.  Oversized patterns
are rejected by the trivial size comparison before the cap applies, and
equal-size instances are isomorphism tests that no cap applies to: cheap
tests, then the placement search under the budget (see `_isomorphic`).
So reflexivity and reverse-direction queries work at any size the cheap
tests settle, and up to 255 vertices otherwise.  A time budget is checked
on every step of the exponential searches (each placement, routing step
and walk child), and its error's `detail` gives `budget_ms`,
`elapsed_ms` and `steps`, the number of those steps taken before the
budget ran out.

Multiplicity semantics (multi mode):

* subgraph: injective vertex map, mult_h(u,v) <= mult_g(image pair),
* topological minor: injective map plus one path per pattern edge unit,
  paths internally vertex-disjoint from each other and from the images;
  parallel pattern units may be routed directly while distinct host units
  remain between the image pair,
* minor: disjoint connected branch sets, mult_h(u,v) distinct host units
  between the sets for each pattern pair,
* immersion: injective map plus one path per pattern edge unit, paths
  pairwise edge-unit-disjoint; paths may pass through images.

Every relation but subgraph is also generated by single steps, and one
generator, `_single_steps`, serves `_walk` and the obstruction scans:
vertex deletion and edge-unit deletion, plus edge contraction for minors,
dissolution of an edge-degree-2 vertex with two distinct neighbours (never
contraction of an arbitrary edge) for topological minors, and lifting a
pair of edges at a shared middle vertex for immersions.

Simple mode collapses multiplicities on both sides first.  Minor and
topological minor default to simple mode, subgraph and immersion to multi.
Every CLI-facing report records which mode was in force.
"""
from __future__ import annotations

from enum import Enum
from math import inf
from time import monotonic

from .multigraph import (
    BudgetExceededError,
    MultiGraph,
    _is_tree,
    _rooted,
    canonical_form,
    contract_edge,
    delete_edge,
    delete_vertices,
    lift_pair,
    tree_code,
)

DEFAULT_MAX_PATTERN = 8
DEFAULT_MAX_HOST = 16
#: state cap of the lifting walks of `immersion_reachable_set` and
#: `immersion_by_liftings`
_ORACLE_MAX_STATES = 500000
#: steps the routing try of `_minor` may take before it gives way to the walk
_ROUTING_STEPS = 20_000
#: smallest reduced host on which `_minor` tries routing; on smaller hosts
#: the walk has few classes to visit and costs less than the routing search
_ROUTING_MIN_HOST = 8


class Relation(str, Enum):
    SUBGRAPH = "subgraph"
    TOPOLOGICAL_MINOR = "topological_minor"
    MINOR = "minor"
    IMMERSION = "immersion"


class Mode(str, Enum):
    SIMPLE = "simple"
    MULTI = "multi"


RELATION_ALIASES = {
    "subgraph": Relation.SUBGRAPH,
    "sub": Relation.SUBGRAPH,
    "topological_minor": Relation.TOPOLOGICAL_MINOR,
    "topological-minor": Relation.TOPOLOGICAL_MINOR,
    "tm": Relation.TOPOLOGICAL_MINOR,
    "minor": Relation.MINOR,
    "immersion": Relation.IMMERSION,
    "im": Relation.IMMERSION,
}


def parse_relation(name: str) -> Relation:
    try:
        return RELATION_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown relation {name!r}; choose from "
                         f"{sorted(set(RELATION_ALIASES))}")


def default_mode(relation: Relation) -> Mode:
    if relation in (Relation.MINOR, Relation.TOPOLOGICAL_MINOR):
        return Mode.SIMPLE
    return Mode.MULTI


class _StepCeiling(Exception):
    """A `_Deadline`'s step ceiling was passed; the searcher moves on."""


class _Deadline:
    """Cooperative wall-clock cutoff; check() reads the clock on every call,
    which costs far less than one search step, and counts the steps that
    passed it.  A search may also set a step `ceiling`, past which check()
    raises `_StepCeiling` instead of going on."""

    __slots__ = ("budget_ms", "until", "steps", "ceiling")

    def __init__(self, budget_ms: float | None):
        self.budget_ms = budget_ms
        self.until = None if budget_ms is None else monotonic() + budget_ms / 1000.0
        self.steps = 0
        self.ceiling = inf

    def check(self):
        if self.until is not None and monotonic() > self.until:
            late_ms = (monotonic() - self.until) * 1000.0
            raise BudgetExceededError(
                "containment search exceeded its time budget",
                {"budget_ms": self.budget_ms,
                 "elapsed_ms": round(self.budget_ms + late_ms, 1),
                 "steps": self.steps})
        self.steps += 1
        if self.steps > self.ceiling:
            raise _StepCeiling


def _embed_order(h: MultiGraph) -> list[int]:
    """Pattern vertices ordered so each new one touches placed ones when possible."""
    remaining = set(range(h.n))
    order: list[int] = []
    placed: set[int] = set()
    while remaining:
        if not order:
            v = max(remaining, key=lambda x: (h.edge_degrees[x], -x))
        else:
            v = max(remaining,
                    key=lambda x: (sum(1 for u in h.adj[x] if u in placed),
                                   h.edge_degrees[x], -x))
        order.append(v)
        placed.add(v)
        remaining.discard(v)
    return order


def _embed(g: MultiGraph, h: MultiGraph, dl: _Deadline, finish=None) -> bool:
    """The one vertex-placement search behind the subgraph,
    topological-minor and immersion engines.

    Places pattern vertices in `_embed_order`, trying host vertices in
    ascending label order and skipping any with a lower edge degree.
    Without `finish`, each placement must carry the multiplicity of every
    edge to already-placed neighbours, so a complete placement is a
    subgraph embedding, and only the host neighbours of the first such
    neighbour's image are tried.  With `finish`, placement is unconstrained
    and `finish(image, used)` decides whether the pattern's edge units can
    be routed between the images.  Callers have already compared sizes.
    """
    hd = sorted(h.edge_degrees, reverse=True)
    gd = sorted(g.edge_degrees, reverse=True)
    if any(a > b for a, b in zip(hd, gd)):
        return False
    order = _embed_order(h)
    image = [-1] * h.n
    used = [False] * g.n

    def place(i: int) -> bool:
        dl.check()
        if i == len(order):
            return finish is None or finish(image, used)
        v = order[i]
        need = [(image[u], m) for u, m in h.adj[v].items()
                if image[u] >= 0] if finish is None else ()
        free = g.neighbor_masks[need[0][0]] if need else (1 << g.n) - 1
        while free:
            w = (free & -free).bit_length() - 1
            free &= free - 1
            if used[w] or g.edge_degrees[w] < h.edge_degrees[v]:
                continue
            if need and not all(g.multiplicity(w, iu) >= m for iu, m in need):
                continue
            image[v] = w
            used[w] = True
            if place(i + 1):
                return True
            image[v] = -1
            used[w] = False
        return False

    return place(0)


def _single_steps(g: MultiGraph, rel: Relation, mode: Mode):
    """Every single-step reduction of g under the relation, in a fixed
    order: vertex deletions, each edge's unit deletion (then, for minors,
    its contraction), then dissolutions or lifts.  Any strict containment
    h < g lies below one of these steps."""
    simple = mode is Mode.SIMPLE
    for v in range(g.n):
        yield delete_vertices(g, (v,))
    for u, v, _ in g.edges:
        yield delete_edge(g, u, v)
        if rel is Relation.MINOR:
            yield contract_edge(g, u, v, simple=simple)
    if rel is Relation.TOPOLOGICAL_MINOR:
        for y in range(g.n):
            if g.edge_degrees[y] == 2 and len(g.adj[y]) == 2:
                # contracting either edge at y dissolves y
                yield contract_edge(g, y, min(g.adj[y]), simple=simple)
    elif rel is Relation.IMMERSION:
        for y in range(g.n):
            nbrs = list(g.adj[y])
            for i, x in enumerate(nbrs):
                for z in nbrs[i + 1:]:
                    yield lift_pair(g, x, y, z)


def _walk(g: MultiGraph, rel: Relation, mode: Mode, floor: tuple[int, int],
          dl: _Deadline, reduce=None, max_states: int | None = None):
    """Canonical forms of the classes reachable from g by `_single_steps`
    of the relation, each once, depth first in step order.

    Every step loses a vertex or an edge unit, so classes below
    floor = (vertices, units) are skipped and classes at the floor are not
    expanded.  `reduce`, when given, maps each reached graph to a smaller
    stand-in before its class is taken.  One global `seen` set serves as
    the memo: a caller that stops at the first hit never needs a memoized
    success.  The deadline is checked once per child.
    """
    seen: set[bytes] = set()
    stack = [iter((g,))]
    while stack:
        x = next(stack[-1], None)
        if x is None:
            stack.pop()
            continue
        dl.check()
        if reduce is not None:
            x = reduce(x)
        if x.n < floor[0] or x.total_units < floor[1]:
            continue
        c = canonical_form(x)
        if c in seen:
            continue
        seen.add(c)
        if max_states is not None and len(seen) > max_states:
            raise BudgetExceededError("reduction walk state cap exceeded",
                                      {"states": len(seen)})
        yield c
        if (x.n, x.total_units) != floor:
            stack.append(_single_steps(x, rel, mode))


def _minor(g: MultiGraph, h: MultiGraph, dl: _Deadline, multi: bool = False) -> bool:
    """The subgraph shortcut, then a capped routing try, then a walk down
    the host's minor classes.

    1. A subgraph embedding is a minor model.
    2. In simple mode, on a reduced host of at least `_ROUTING_MIN_HOST`
       vertices, `_topological` searches for a topological minor under a
       ceiling of `_ROUTING_STEPS` steps on the query's own deadline.  A
       routing found is a minor model, so it answers True.  If h has
       maximum degree at most 3, h is a minor of g exactly when it is a
       topological minor of g (Diestel, Graph Theory, 1.7), so a search
       that ends under the ceiling answers False.  The host has been
       through `_reduce_host`, which keeps both relations unchanged.  On
       smaller hosts the walk is cheaper than routing, so the try is
       skipped there.
    3. Otherwise the walk decides.  Unlike a direct model search, the cost
       of a negative answer is bounded by the number of distinct
       (normalized) minor classes of the host, which stays small for
       sparse hosts.

    All three steps count on the same deadline, so a budget error reports
    every step taken.
    """
    if _embed(g, h, dl):
        return True
    if not multi and g.n >= _ROUTING_MIN_HOST:
        dl.ceiling = dl.steps + _ROUTING_STEPS
        try:
            if _topological(g, h, dl):
                return True
            if max(h.edge_degrees, default=0) <= 3:
                return False
        except _StepCeiling:
            pass
        finally:
            dl.ceiling = inf
    hkey = canonical_form(h)
    mode = Mode.MULTI if multi else Mode.SIMPLE
    return any(c == hkey for c in _walk(
        g, Relation.MINOR, mode, (h.n, h.total_units), dl,
        reduce=lambda x: _reduce_host(h, x, multi)))


def _topological(g: MultiGraph, h: MultiGraph, dl: _Deadline) -> bool:
    """Route each pattern unit directly while host units remain between the
    image pair, else along a path avoiding the images and the other paths."""
    units = [(u, v) for u, v, m in h.edges for _ in range(m)]
    direct_used: dict[tuple[int, int], int] = {}

    def route(image: list[int], used_v: list[bool], qi: int = 0) -> bool:
        if qi == len(units):
            return True
        u, v = units[qi]
        a, b = image[u], image[v]
        key = (a, b) if a < b else (b, a)
        if direct_used.get(key, 0) < g.multiplicity(a, b):
            direct_used[key] = direct_used.get(key, 0) + 1
            if route(image, used_v, qi + 1):
                return True
            direct_used[key] -= 1
        path: list[int] = []

        def dfs(x: int) -> bool:
            dl.check()
            for y in g.adj[x]:
                if y == b:
                    if path and route(image, used_v, qi + 1):
                        return True
                elif not used_v[y]:
                    path.append(y)
                    used_v[y] = True
                    if dfs(y):
                        return True
                    path.pop()
                    used_v[y] = False
            return False

        return dfs(a)

    return _embed(g, h, dl, route)


def _immersion(g: MultiGraph, h: MultiGraph, dl: _Deadline) -> bool:
    """One path per pattern unit, each path using up one unit of host
    capacity on every edge it crosses.

    Routing prunes on residual room.  `room[x]` is the unused capacity on
    the edges at host vertex x, and `need[x]` the number of pattern units
    still unrouted at the image x (0 off the images).  A unit's own ends
    give up their share before its path is searched, and the path may pass
    through a vertex y only if `room[y] - 2 >= need[y]`: every unit still
    to come at y needs one more unit of room there.  The test is necessary
    for any routing to exist, so it never changes an answer.
    """
    units = [(u, v) for u, v, m in h.edges for _ in range(m)]
    cap = dict(g.edge_dict)
    room = list(g.edge_degrees)
    need = [0] * g.n

    def route(image: list[int], _used: list[bool], qi: int = 0) -> bool:
        if qi == 0:
            need[:] = [0] * g.n
            for v, w in enumerate(image):
                need[w] = h.edge_degrees[v]
        if qi == len(units):
            return True
        u, v = units[qi]
        a, b = image[u], image[v]
        need[a] -= 1
        need[b] -= 1
        visited = [False] * g.n

        def dfs(x: int) -> bool:
            dl.check()
            if x == b:
                return route(image, _used, qi + 1)
            visited[x] = True
            for y in g.adj[x]:
                key = (x, y) if x < y else (y, x)
                if (not visited[y] and cap[key] > 0
                        and (y == b or room[y] - 2 >= need[y])):
                    cap[key] -= 1
                    room[x] -= 1
                    room[y] -= 1
                    if dfs(y):
                        return True
                    cap[key] += 1
                    room[x] += 1
                    room[y] += 1
            visited[x] = False
            return False

        if dfs(a):
            return True
        need[a] += 1
        need[b] += 1
        return False

    return _embed(g, h, dl, route)


def _reduce_host(h: MultiGraph, g: MultiGraph, multi: bool = False) -> MultiGraph:
    """Shrink the host without changing minor or topological-minor
    containment of h.

    Host vertices with edge degree below the pattern's minimum edge degree
    capped at 2 are dead weight: an isolated vertex cannot join any branch
    set, and a degree-1 vertex can serve only as a removable branch leaf or
    path end.  When the pattern minimum degree is >= 3 and the host is kept
    simple, host degree-2 vertices can carry nothing but a through-path, so
    they are suppressed (one incident edge contracted).  Iterates to a
    fixed point.
    """
    if h.n == 0:
        return g
    low = min(h.edge_degrees)
    if low < 1:
        return g
    cut = min(low, 2) - 1
    while g.n:
        degs = g.edge_degrees
        drop = [v for v in range(g.n) if degs[v] <= cut]
        if drop:
            g = delete_vertices(g, drop)
            continue
        if low >= 3 and not multi:
            two = next((v for v in range(g.n) if degs[v] == 2
                        and len(g.adj[v]) == 2), None)
            if two is not None:
                g = contract_edge(g, two, min(g.adj[two]), simple=True)
                continue
        break
    return g


def _isomorphic(h: MultiGraph, g: MultiGraph, dl: _Deadline) -> bool:
    """Whether h and g are isomorphic, which is containment between graphs
    of equal size: any strict step of a relation loses a vertex or an edge
    unit.

    The cheap tests come first: sizes, identical edges, degree multisets
    and tree codes.  What they leave open is decided by `_embed` under the
    query's deadline, at every size: with equal vertex and unit counts, an
    injective map that respects multiplicities is an isomorphism.  The
    placement search recurses once per vertex, so an open pair above 255
    vertices raises `BudgetExceededError` instead.
    """
    if h.n != g.n or h.total_units != g.total_units:
        return False
    if h.edges == g.edges:
        return True
    if sorted(h.edge_degrees) != sorted(g.edge_degrees):
        return False
    ch, cg = tree_code(h), tree_code(g)
    if ch is not None or cg is not None:
        return ch == cg
    if g.n > 255:
        raise BudgetExceededError("isomorphism search limited to 255 vertices",
                                  {"n": g.n})
    return _embed(g, h, dl)


def are_isomorphic(a: MultiGraph, b: MultiGraph) -> bool:
    """Whether a and b are isomorphic, decided without a time budget."""
    return _isomorphic(a, b, _Deadline(None))


def _tree_minor(h: MultiGraph, g: MultiGraph) -> bool:
    """Minor containment between trees, in polynomial time.

    A minor model of a tree in a tree assigns each pattern vertex a subtree
    of the host.  Root the host anywhere; the model's topmost host vertex d
    lies in the branch set of some pattern vertex r, and the rest of the
    model hangs below d.  So try every choice of r and d, and decide each
    by a packing table: pack[c][v] is the set of subsets of v's children
    that the host subtree below c can fully embed while c itself belongs to
    v's branch set.  A host child either extends the branch set, hosts
    exactly one full pattern child (the connecting edge forces its branch
    set to contain that host child), or is unused.  The table is filled
    host children first, so deep trees need no recursion.
    """
    if h.n == 1:
        return True
    gch, gorder = _rooted(g, 0)
    for root in range(h.n):
        hch, _ = _rooted(h, root)
        full = [(1 << len(kids)) - 1 for kids in hch]
        pack: list[list[set[int]]] = [[] for _ in range(g.n)]
        embeds: list[list[bool]] = [[] for _ in range(g.n)]
        for gv in reversed(gorder):
            for hv in range(h.n):
                masks = {0}
                for c in gch[gv]:
                    options = set(pack[c][hv])
                    for i, child in enumerate(hch[hv]):
                        if embeds[c][child]:
                            options.add(1 << i)
                    if options != {0}:
                        masks = {m | o for m in masks for o in options
                                 if not m & o} | masks
                pack[gv].append(masks)
                embeds[gv].append(full[hv] in masks)
        if any(embeds[d][root] for d in range(g.n)):
            return True
    return False


def contains(rel: Relation | str, h: MultiGraph, g: MultiGraph,
             mode: Mode | str | None = None,
             budget_ms: float | None = None,
             max_pattern: int = DEFAULT_MAX_PATTERN,
             max_host: int = DEFAULT_MAX_HOST) -> bool:
    """True when the host g contains the pattern h under `rel`.

    Size caps reject instances the search cannot be trusted to finish;
    raise them only when the instance is known to be benign (for example a
    containment that an explicit embedding certifies).  A budget, when
    given, must be a positive number of milliseconds.
    """
    if budget_ms is not None and not budget_ms > 0:
        raise ValueError(f"budget_ms must be positive, got {budget_ms!r}")
    dl = _Deadline(budget_ms)
    rel = parse_relation(rel) if isinstance(rel, str) else rel
    if mode is None:
        mode = default_mode(rel)
    else:
        mode = Mode(mode)
    if mode is Mode.SIMPLE:
        g, h = g.simplify(), h.simplify()
    if h.n > g.n or h.total_units > g.total_units:
        return False
    if h.n and max(h.edge_degrees) >= 3 and (
            not g.n or max(g.edge_degrees) <= 2):
        # hosts made of paths and cycles stay that way: deletions only
        # lower degrees, contracting inside a degree-2 host keeps every
        # degree at 2, and lifting through a degree-2 vertex is neutral
        return False
    if rel in (Relation.MINOR, Relation.TOPOLOGICAL_MINOR):
        # keeps both relations, and leaves a host isomorphic to h untouched
        g = _reduce_host(h, g, mode is Mode.MULTI)
        if h.n > g.n or h.total_units > g.total_units:
            return False
    if h.n == g.n and h.total_units == g.total_units:
        return _isomorphic(h, g, dl)
    if (rel is Relation.MINOR and _is_tree(h) and _is_tree(g)
            and max(h.edge_degrees) <= 12):
        # polynomial and uncapped; the degree guard bounds the mask sets
        return _tree_minor(h, g)
    if h.n > max_pattern or g.n > max_host:
        raise BudgetExceededError(
            "containment instance exceeds the size caps",
            {"pattern_vertices": h.n, "host_vertices": g.n,
             "max_pattern": max_pattern, "max_host": max_host})
    if rel is Relation.SUBGRAPH:
        return _embed(g, h, dl)
    if rel is Relation.MINOR:
        return _minor(g, h, dl, mode is Mode.MULTI)
    # a subgraph embedding is a topological minor and an immersion, and
    # costs far less than routing
    if _embed(g, h, dl):
        return True
    # routing recurses at least once per pattern unit; its state is local
    # to the call, so running out of stack can unwind into an error
    try:
        if rel is Relation.TOPOLOGICAL_MINOR:
            return _topological(g, h, dl)
        return _immersion(g, h, dl)
    except RecursionError:
        raise BudgetExceededError(
            f"routing ran out of stack at {h.total_units} pattern edge units",
            {"pattern_units": h.total_units, "host_vertices": g.n,
             "host_units": g.total_units}) from None


# -- antichains ---------------------------------------------------------------

def is_antichain(rel: Relation | str, graphs, *, mode: Mode | str | None = None) -> bool:
    """No member contains another (isomorphic repeats also fail)."""
    gs = list(graphs)
    for i, a in enumerate(gs):
        for j, b in enumerate(gs):
            if i != j and contains(rel, a, b, mode=mode):
                return False
    return True


# -- witness checkers ---------------------------------------------------------
#
# Containments between graphs too large for the blind search are asserted
# through explicit witnesses checked here in linear-ish time.  A witness that
# verifies is a proof of containment regardless of how it was found.

def verify_subgraph_map(h: MultiGraph, g: MultiGraph, image) -> bool:
    """image[v] is the host vertex for pattern vertex v; checks injectivity
    and multiplicity-respecting edge preservation."""
    image = list(image)
    if len(image) != h.n:
        return False
    if any(not (0 <= w < g.n) for w in image):
        return False
    if len(set(image)) != h.n:
        return False
    return all(g.multiplicity(image[u], image[v]) >= m for u, v, m in h.edges)


def verify_minor_model(h: MultiGraph, g: MultiGraph, branch_sets,
                       mode: Mode | str = Mode.SIMPLE) -> bool:
    """branch_sets[v] lists the host vertices standing for pattern vertex v.

    Checks: sets nonempty, pairwise disjoint, each connected in the host,
    and for every pattern edge enough host units run between the two sets
    (at least one in simple mode, the full multiplicity in multi mode).
    """
    mode = Mode(mode)
    if mode is Mode.SIMPLE:
        h, g = h.simplify(), g.simplify()
    sets = [tuple(s) for s in branch_sets]
    if len(sets) != h.n:
        return False
    seen: set[int] = set()
    for s in sets:
        if not s:
            return False
        for w in s:
            if not (0 <= w < g.n) or w in seen:
                return False
            seen.add(w)
    for s in sets:
        block = set(s)
        frontier = [s[0]]
        reached = {s[0]}
        while frontier:
            x = frontier.pop()
            for y in g.adj[x]:
                if y in block and y not in reached:
                    reached.add(y)
                    frontier.append(y)
        if reached != block:
            return False
    owner = {}
    for i, s in enumerate(sets):
        for w in s:
            owner[w] = i
    crossing: dict[tuple[int, int], int] = {}
    for a, b, m in g.edges:
        oa, ob = owner.get(a), owner.get(b)
        if oa is None or ob is None or oa == ob:
            continue
        key = (oa, ob) if oa < ob else (ob, oa)
        crossing[key] = crossing.get(key, 0) + m
    return all(crossing.get((u, v), 0) >= m for u, v, m in h.edges)


# -- an independent immersion decision, for cross-checks ---------------------

def immersion_reachable_set(g: MultiGraph) -> frozenset[bytes]:
    """Canonical forms of everything reachable from g by vertex deletions,
    edge unit deletions, and lifts.

    Reachability under these moves is an alternative description of
    immersion containment, so this set doubles as an oracle independent of
    the path search.  Intended for tiny graphs.
    """
    return frozenset(_walk(g, Relation.IMMERSION, Mode.MULTI, (0, 0),
                           _Deadline(None), max_states=_ORACLE_MAX_STATES))


def immersion_by_liftings(g: MultiGraph, h: MultiGraph) -> bool:
    """Immersion containment decided by the lifting walk alone."""
    target = canonical_form(h)
    return any(c == target for c in
               _walk(g, Relation.IMMERSION, Mode.MULTI, (h.n, h.total_units),
                     _Deadline(None), max_states=_ORACLE_MAX_STATES))
