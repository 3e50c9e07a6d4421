"""Exact solvers for the width and apex parameters used across the toolkit.

The width solvers are exponential searches over vertex bitmasks, exact at
desk scale and guarded by hard vertex caps.  Width parameters of a
multigraph are those of its simplification, except cutwidth, which counts
edge multiplicities.  The empty graph evaluates to 0 everywhere so the
parameters stay total and monotone at the bottom.

Each solver that promises a witness returns one that an independent checker
(`layout_*_cost`, `is_z_apex_witness`) re-evaluates without consulting the
search.  treewidth, pathwidth and cutwidth share `_layout_search`, which
bisects the least worst step cost over vertex orders between a lower bound
and a layout known to cost the upper bound.  Each probe is a depth-first
search over prefix sets that remembers the prefixes proved hopeless, so
graphs whose bounds meet or nearly meet visit few of the 2^n prefixes.

- treewidth: `_tw_bounds`, minor-min-width below and the better of greedy
  min-fill and min-degree elimination above, whose order read backwards is
  the layout; the value must lie between them.
  treewidth_by_elimination deliberately skips the bounds: it stays the raw
  DP, filling all 2^n vertex sets S with the least, over the components C
  of G[S] and the v in C, of max(TW(S - v), |N(C) - S|).  It shares no
  search helper with treewidth (only `simplify` and `neighbor_masks`), so
  comparing the two solvers remains a real cross-check.
- pathwidth: minor-min-width below (mmw <= tw <= pw), a greedy cheapest-next
  layout above.
- cutwidth: the same greedy above; below, the larger of half the largest
  edge degree and a bound on the cut after the first i vertices.

bi_pathwidth is the maximum pathwidth over blocks.  A minimum would not be
minor-monotone (a pendant edge glued to K4 would drag the value down to 1),
so the maximum is the only reading compatible with monotonicity; outputs
carry a `block_rule: max` flag to make the convention visible.

Each parameter kind is one `ParameterKind` row: its tag, the order it is
monotone under and its exact solver, `kind.solve(g)`.  `KIND_ALIASES` maps
every accepted name to its row, so a new kind is one row plus its aliases.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .multigraph import (BudgetExceededError, MultiGraph, _block_sets,
                         _component_mask, delete_vertices)
from .relations import Relation, contains

MAX_TREEWIDTH_VERTICES = 16
MAX_PATHWIDTH_VERTICES = 16
MAX_CUTWIDTH_VERTICES = 14
MAX_Z_APEX_VERTICES = 12


@dataclass(frozen=True)
class Layout:
    """A linear layout: order[i] is the vertex at position i+1."""

    order: tuple[int, ...]


def _check_cap(g: MultiGraph, cap: int, what: str):
    if g.n > cap:
        raise BudgetExceededError(
            f"{what} solver capped", {"vertices": g.n, "cap": cap})


def _mask_neighbors(mask: int, nmask: tuple[int, ...]) -> int:
    out = 0
    m = mask
    while m:
        low = m & -m
        out |= nmask[low.bit_length() - 1]
        m ^= low
    return out


def _bits(mask: int):
    """The vertices of a bitmask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _fits(n: int, step, k: int) -> list[int] | None:
    """An order whose every step costs at most k, or None if there is none.

    Depth-first over prefix sets, lowest vertex first.  Whether a prefix
    can be completed depends on the set alone, so one proved hopeless is
    kept in `dead` and never entered again.  `_extend` is no closure over
    itself, so `dead` is freed when the probe returns, not by the collector.
    """
    order: list[int] = []
    return order if _extend(0, 0, (1 << n) - 1, step, k, set(), order) else None


def _extend(prev: int, val, full: int, step, k: int, dead: set, order: list) -> bool:
    """Whether prefix prev can be completed; if so, order gets the rest."""
    if prev == full:
        return True
    for v in _bits(full & ~prev):
        s = prev | 1 << v
        if s in dead:
            continue
        cost, nval = step(prev, v, val)
        if cost <= k:
            order.append(v)
            if _extend(s, nval, full, step, k, dead, order):
                return True
            order.pop()
    dead.add(prev)
    return False


def _greedy_layout(n: int, step) -> tuple[int, list[int]]:
    """(worst cost, order) of placing a cheapest next vertex at every step,
    ties to the lowest."""
    full = (1 << n) - 1
    prev, val, worst, order = 0, 0, 0, []
    while prev != full:
        cost, val, v = min(((*step(prev, v, val), v) for v in _bits(full & ~prev)),
                           key=lambda found: found[0])
        worst = max(worst, cost)
        prev |= 1 << v
        order.append(v)
    return worst, order


def _layout_search(n: int, step, lo: int, hi: int, order) -> tuple[int, Layout]:
    """Least worst step cost over all vertex orders, with an order attaining it.

    step(prev, v, val) -> (cost, val') is the cost of placing v right after
    the prefix set prev, and carries a value from prefix to prefix: val is
    what the step into prev returned (0 for the empty prefix), val' goes on
    to prev | v.  lo must be a lower bound and order must cost hi; the
    search bisects between them with `_fits`.
    """
    while lo < hi:
        mid = (lo + hi) // 2
        found = _fits(n, step, mid)
        if found is None:
            lo = mid + 1
        else:
            hi, order = mid, found
    return hi, Layout(tuple(order))


def _fill_in(adj: list[int], v: int) -> int:
    """Edges missing between the neighbours of v."""
    nb = adj[v]
    return sum((nb & ~adj[w]).bit_count() - 1 for w in _bits(nb)) // 2


def _greedy_elimination(nmask: tuple[int, ...], score) -> tuple[int, list[int]]:
    """(width, order) of eliminating a least-score vertex at every step,
    ties to the lowest; the width is the largest degree at elimination."""
    adj = list(nmask)
    alive = (1 << len(adj)) - 1
    width, order = 0, []
    while alive:
        v = min(_bits(alive), key=lambda x: score(adj, x))
        nb = adj[v]
        width = max(width, nb.bit_count())
        for w in _bits(nb):
            adj[w] = (adj[w] | nb) & ~(1 << w | 1 << v)
        alive ^= 1 << v
        order.append(v)
    return width, order


def _minor_min_width(nmask: tuple[int, ...]) -> int:
    """Largest minimum degree seen while contracting a minimum-degree vertex
    into its least-degree neighbour (ties to the lowest vertex).  Every
    graph in the sequence is a minor, so this bounds treewidth from below."""
    adj = list(nmask)
    alive = (1 << len(adj)) - 1
    lo = 0
    while alive & (alive - 1):
        v = min(_bits(alive), key=lambda x: adj[x].bit_count())
        nb = adj[v]
        lo = max(lo, nb.bit_count())
        alive ^= 1 << v
        if nb:
            u = min(_bits(nb), key=lambda x: adj[x].bit_count())
            rest = nb & ~(1 << u)
            adj[u] = (adj[u] | rest) & ~(1 << v)
            for w in _bits(rest):
                adj[w] = (adj[w] & ~(1 << v)) | 1 << u
    return lo


def _tw_bounds(g: MultiGraph) -> tuple[int, int, list[int]]:
    """(lo, hi, order) with lo <= treewidth(g) <= hi.

    lo is minor-min-width (Gogate-Dechter 2004); hi is the width of the
    better of greedy min-fill and min-degree elimination (Bodlaender-Koster
    2010), and order is that elimination order.  Read backwards it is a
    layout whose `layout_treewidth_cost` is hi: the earlier vertices next to
    the component of v within the suffix are v's neighbours in the filled
    graph when v is eliminated.
    """
    nmask = g.simplify().neighbor_masks
    hi, order = min(
        _greedy_elimination(nmask, _fill_in),
        _greedy_elimination(nmask, lambda adj, x: adj[x].bit_count()),
        key=lambda found: found[0])
    return _minor_min_width(nmask), hi, order


def treewidth(g: MultiGraph) -> tuple[int, Layout]:
    """Exact treewidth with a witness layout.

    Uses the layout characterization: at each position, count the earlier
    vertices adjacent to the connected component (within the unplaced
    suffix) of the vertex placed there; treewidth is the min over layouts
    of the worst position.  The search runs between `_tw_bounds`, from
    their elimination order read backwards; when they meet it does nothing.
    """
    g = g.simplify()
    _check_cap(g, MAX_TREEWIDTH_VERTICES, "treewidth")
    lo, hi, order = _tw_bounds(g)
    nmask = g.neighbor_masks
    full = (1 << g.n) - 1

    def step(prev: int, v: int, _):
        comp = _component_mask(v, full & ~prev, nmask)
        return (_mask_neighbors(comp, nmask) & prev).bit_count(), 0

    value, layout = _layout_search(g.n, step, lo, hi, order[::-1])
    if not lo <= value <= hi:
        raise AssertionError(f"treewidth search gave {value} outside its "
                             f"bounds lo={lo}, hi={hi}")
    return value, layout


def treewidth_by_elimination(g: MultiGraph) -> int:
    """Treewidth again, as the cheapest worst elimination degree.

    Fills all 2^n vertex sets S with TW(S) = min over v in S of
    max(TW(S - v), |N(C) - S|), where C is the component of v in G[S]
    (Bodlaender, Fomin, Koster, Kratsch and Thilikos, ESA 2006).  The cost
    depends on C alone, so each component of G[S] is grown and priced once,
    from a table of subset neighbourhoods.  No bound, greedy order or early
    exit, and no search helper shared with `treewidth`: it stays a
    separately coded oracle so the two solvers can be compared.
    """
    g = g.simplify()
    _check_cap(g, MAX_TREEWIDTH_VERTICES, "treewidth")
    n = g.n
    nmask = g.neighbor_masks
    size = 1 << n
    nb = [0] * size
    for s in range(1, size):
        low = s & -s
        nb[s] = nb[s ^ low] | nmask[low.bit_length() - 1]
    dp = [n] * size
    dp[0] = 0
    for s in range(1, size):
        best = n
        rest = s
        while rest:
            comp = rest & -rest
            while (grown := comp | nb[comp] & s) != comp:
                comp = grown
            rest ^= comp
            cost = (nb[comp] & ~s).bit_count()
            if cost >= best:
                continue
            m = comp
            while m:
                low = m & -m
                d = dp[s ^ low]
                if d < best:
                    best = d if d > cost else cost
                m ^= low
        dp[s] = best
    return dp[size - 1]


def pathwidth(g: MultiGraph) -> tuple[int, Layout]:
    """Exact pathwidth via vertex separation, with a witness layout.

    A step costs the boundary of the prefix after it: the placed vertices
    with a neighbour still unplaced.  The boundary is carried as a mask."""
    g = g.simplify()
    _check_cap(g, MAX_PATHWIDTH_VERTICES, "pathwidth")
    nmask = g.neighbor_masks

    def step(prev: int, v: int, bound: int):
        s = prev | 1 << v
        bound |= 1 << v
        for u in _bits(bound & (nmask[v] | 1 << v)):
            if not nmask[u] & ~s:
                bound ^= 1 << u
        return bound.bit_count(), bound

    return _layout_search(g.n, step, _minor_min_width(nmask),
                          *_greedy_layout(g.n, step))


def cutwidth(g: MultiGraph) -> tuple[int, Layout]:
    """Exact cutwidth, counting multiplicities, with a witness layout.

    Below: half the largest edge degree, and the cut after the first i
    vertices of any order, at least their i smallest edge degrees less the
    i(i-1)/2 pairs among them, each of multiplicity at most mu, twice."""
    _check_cap(g, MAX_CUTWIDTH_VERTICES, "cutwidth")
    adj = g.adj
    degs = sorted(g.edge_degrees)
    mu = g.max_multiplicity()
    lo = max([(max(degs, default=0) + 1) // 2]
             + [d - i * (i + 1) * mu for i, d in enumerate(itertools.accumulate(degs))])

    def step(prev: int, v: int, cut: int):
        for w, m in adj[v].items():
            cut += -m if prev >> w & 1 else m
        return cut, cut

    return _layout_search(g.n, step, lo, *_greedy_layout(g.n, step))


def edge_degree(g: MultiGraph) -> int:
    """Largest number of edge units meeting one vertex (0 for no vertices)."""
    return max(g.edge_degrees, default=0)


def _blocks(g: MultiGraph) -> list[MultiGraph]:
    """Blocks of the simplified graph that carry an edge: its 2-connected
    pieces and its bridges, each relabeled to its own vertex range.
    Isolated vertices are left out; their pathwidth, 0, never changes
    `bi_pathwidth`'s maximum."""
    g = g.simplify()
    return [delete_vertices(g, set(range(g.n)) - block) for block in _block_sets(g)]


def bi_pathwidth(g: MultiGraph) -> int:
    """Maximum pathwidth over the blocks of g (see the module docstring)."""
    _check_cap(g, MAX_PATHWIDTH_VERTICES, "bi_pathwidth")
    return max((pathwidth(b)[0] for b in _blocks(g)), default=0)


def z_apex(g: MultiGraph, z_list) -> tuple[int, tuple[int, ...]]:
    """Minimum number of vertex deletions leaving no member of z_list as a
    minor, with the deletion set as witness."""
    z_list = list(z_list)
    if any(z.n == 0 for z in z_list):
        raise ValueError("z_apex cannot forbid K0: every graph has it as a minor")
    _check_cap(g, MAX_Z_APEX_VERTICES, "z_apex")
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if is_z_apex_witness(g, z_list, combo):
                return size, combo
    raise AssertionError("deleting every vertex leaves K0, which has no minors")


# -- independent witness checkers ---------------------------------------------

def layout_treewidth_cost(g: MultiGraph, layout: Layout) -> int:
    g = g.simplify()
    order = list(layout.order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("layout is not a permutation of the vertices")
    worst = 0
    for i, v in enumerate(order):
        prefix = set(order[:i])
        suffix = set(order[i:])
        comp = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in g.adj[x]:
                if y in suffix and y not in comp:
                    comp.add(y)
                    stack.append(y)
        cost = sum(1 for u in prefix if any(y in comp for y in g.adj[u]))
        worst = max(worst, cost)
    return worst


def layout_pathwidth_cost(g: MultiGraph, layout: Layout) -> int:
    g = g.simplify()
    order = list(layout.order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("layout is not a permutation of the vertices")
    worst = 0
    for i in range(len(order)):
        prefix = set(order[:i])
        suffix = set(order[i:])
        cost = sum(1 for u in prefix if any(y in suffix for y in g.adj[u]))
        worst = max(worst, cost)
    return worst


def layout_cutwidth_cost(g: MultiGraph, layout: Layout) -> int:
    order = list(layout.order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("layout is not a permutation of the vertices")
    pos = {v: i for i, v in enumerate(order)}
    worst = 0
    for i in range(1, len(order)):
        cost = sum(m for u, v, m in g.edges if (pos[u] < i) != (pos[v] < i))
        worst = max(worst, cost)
    return worst


def is_z_apex_witness(g: MultiGraph, z_list, deletions) -> bool:
    remaining = delete_vertices(g, deletions)
    return not any(contains(Relation.MINOR, z, remaining) for z in z_list)


# -- parameter kinds -----------------------------------------------------------

@dataclass(frozen=True)
class ParameterKind:
    """A named parameter: the containment order it is monotone under, its
    exact solver, and for the apex variant the forbidden minors it deletes
    toward.  Kinds compare and hash by everything but the solver."""

    tag: str
    monotone_relation: Relation
    solve: Callable[[MultiGraph], int] = field(compare=False, repr=False)
    z_list: tuple[MultiGraph, ...] = ()

    def __str__(self) -> str:
        return self.tag


# solvers are looked up when called, so a wrapped module function is seen
TREEWIDTH = ParameterKind("treewidth", Relation.MINOR, lambda g: treewidth(g)[0])
PATHWIDTH = ParameterKind("pathwidth", Relation.MINOR, lambda g: pathwidth(g)[0])
CUTWIDTH = ParameterKind("cutwidth", Relation.IMMERSION, lambda g: cutwidth(g)[0])
BI_PATHWIDTH = ParameterKind("bi_pathwidth", Relation.MINOR, lambda g: bi_pathwidth(g))
EDGE_DEGREE = ParameterKind("edge_degree", Relation.IMMERSION, lambda g: edge_degree(g))


def z_apex_kind(z_list) -> ParameterKind:
    z_list = tuple(z_list)
    return ParameterKind("z_apex", Relation.MINOR, lambda g: z_apex(g, z_list)[0],
                         z_list)


#: every accepted name -> its kind; None for the z_apex names, whose kind
#: is built around the forbidden minors `parse_kind` is given
KIND_ALIASES = {
    "treewidth": TREEWIDTH, "tw": TREEWIDTH,
    "pathwidth": PATHWIDTH, "pw": PATHWIDTH,
    "cutwidth": CUTWIDTH, "cw": CUTWIDTH,
    "bi_pathwidth": BI_PATHWIDTH, "bi-pathwidth": BI_PATHWIDTH,
    "bi_pw": BI_PATHWIDTH, "bipw": BI_PATHWIDTH,
    "edge_degree": EDGE_DEGREE, "edge-degree": EDGE_DEGREE,
    "ed": EDGE_DEGREE,
    "z_apex": None, "z-apex": None, "zapex": None,
}


def parse_kind(name: str, z_list=()) -> ParameterKind:
    try:
        kind = KIND_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown parameter kind {name!r}; choose from "
                         f"{sorted(set(KIND_ALIASES))}")
    if kind is not None:
        return kind
    if not z_list:
        raise ValueError("z_apex needs a non-empty forbidden-minor list")
    return z_apex_kind(z_list)
