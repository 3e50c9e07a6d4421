"""The collection parameter: least index at which a family escapes a graph.

For a monotone family H with strictly growing members, p_H(G) is the least
k with H_k not contained in G.  The scan is finite because members outgrow
G: a pattern with more vertices plus edge units than the host can never be
contained, so the oracle is consulted only while sizes permit.  Families
whose base index is above 1 are clamped at the bottom: when even the base
member fails to embed, the value is max(base - 1, 1), which keeps the grid
collection consistent with treewidth on tiny graphs (the family simply has
no smaller members to witness intermediate levels).

For a collection the value is computed twice, by the max-over-families
formula and by the joint ascending scan, and the two results are asserted
equal on every call.  A mismatch is an implementation bug, never data.
Both formulas read one memo per family, so each member meets g at most once.

A gap function bounds the parameter and the collection value against each
other: table[k] where tabulated, else a*k**c + b.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .families import (GRID_FAMILY, STAR_FAMILY, TERNARY_TREE_APEX_DUAL_FAMILY,
                       TERNARY_TREE_APEX_FAMILY, TERNARY_TREE_FAMILY, THETA_FAMILY,
                       ParametricFamily, family_by_name, growth_size)
from .multigraph import MultiGraph, enum_key, enumerate_graphs
from .parameters import (EDGE_DEGREE, PATHWIDTH, TREEWIDTH, ParameterKind,
                         parameter_value)
from .relations import Mode, Relation, contains, default_mode, parse_relation

# generous caps: scans are already bounded by the size-growth rule, these
# only guard against runaway containment queries on mid-size members
_MAX_PATTERN = 64
_MAX_HOST = 64


@dataclass(frozen=True)
class PrimeCollection:
    """A finite antichain of monotone families under one relation.

    Primality (each prefix is a chain) and pairwise incomparability are
    established by the test suite per shipped collection; construction only
    checks the cheap structural facts.
    """

    name: str
    relation: Relation
    families: tuple[ParametricFamily, ...]

    def __post_init__(self):
        if not self.families:
            raise ValueError("a collection needs at least one family")
        for fam in self.families:
            if fam.relation is not self.relation:
                raise ValueError(
                    f"family {fam.name} is ordered by {fam.relation.value}, "
                    f"collection by {self.relation.value}")

    @property
    def min_base(self) -> int:
        return min(f.base_index for f in self.families)


def _contained(fam: ParametricFamily, relation, g, seen: dict, k: int) -> bool:
    """Is fam.member(k) contained in g?  seen[k] memoises (growth size,
    answer) per index, and sizes must grow strictly with k."""
    if k not in seen:
        m = fam.member(k)
        size = growth_size(m)
        if k - 1 in seen and size <= seen[k - 1][0]:
            raise ValueError(
                f"family {fam.name} does not grow strictly at index {k}")
        seen[k] = (size, contains(relation, m, g, max_pattern=_MAX_PATTERN,
                                  max_host=_MAX_HOST))
    return seen[k][1]


def p_of_sequence(fam: ParametricFamily, g: MultiGraph) -> int:
    """Least k with fam.member(k) not contained in g (clamped at the base)."""
    return p_of_collection(PrimeCollection(fam.name, fam.relation, (fam,)), g)


def p_of_collection(coll: PrimeCollection, g: MultiGraph) -> int:
    """Collection value computed by both formulas; equality is asserted."""
    seen = {fam.name: {} for fam in coll.families}

    by_max = 1
    for fam in coll.families:
        k = fam.base_index
        while _contained(fam, coll.relation, g, seen[fam.name], k):
            k += 1
        by_max = max(by_max, k if k > fam.base_index else max(k - 1, 1))

    # levels below base - 1 have no member to witness them and count as
    # reached, matching the max-form clamp at max(base - 1, 1)
    by_min = 1
    while any(by_min < fam.base_index - 1
              or _contained(fam, coll.relation, g, seen[fam.name],
                            max(by_min, fam.base_index))
              for fam in coll.families):
        by_min += 1

    if by_max != by_min:
        raise AssertionError(
            f"collection formulas disagree on a {g.n}-vertex graph: "
            f"max-form {by_max}, min-form {by_min}; this is a bug")
    return by_max


def p_of_prefix(relation, graphs, g, *, base_index=1, mode=None):
    """Literal least-escape evaluation over an explicit finite prefix.

    Returns (value, certified).  The value is exact for the infinite
    sequence only when the prefix already outgrows g, which is what the
    certified flag reports; on a non-growing ad hoc prefix it is a lower
    bound.  The last member is measured as `contains` sees it, so simple
    mode measures its simplification.
    """
    relation = parse_relation(relation)
    mode = default_mode(relation) if mode is None else Mode(mode)
    graphs = list(graphs)
    contained = [contains(relation, m, g, mode=mode, max_pattern=_MAX_PATTERN,
                          max_host=_MAX_HOST)
                 for m in graphs]
    hits = [i for i, c in enumerate(contained) if c]
    value = base_index + hits[-1] + 1 if hits else max(base_index - 1, 1)
    if not graphs:
        return value, False
    last = graphs[-1].simplify() if mode is Mode.SIMPLE else graphs[-1]
    return value, growth_size(last) > growth_size(g)


# -- gap functions ----------------------------------------------------------------


@dataclass(frozen=True)
class GapFunction:
    """A monotone bound map: table[k] where tabulated, else a*k**c + b.

    Construction requires a >= 0, c >= 1 and nondecreasing values over
    0..(largest table key + 1); past that the closed form never falls.
    """

    a: int = 1
    b: int = 0
    c: int = 1
    table: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.a < 0 or self.c < 1:
            raise ValueError(
                f"gap needs a >= 0 and c >= 1, not a={self.a}, c={self.c}")
        object.__setattr__(self, "table", tuple(sorted(self.table)))
        values = [self(k) for k in range(max(dict(self.table), default=-1) + 2)]
        if values != sorted(values):
            raise ValueError(f"gap values {values} are not nondecreasing")

    def __call__(self, k: int) -> int:
        return dict(self.table).get(k, self.a * k ** self.c + self.b)


def identity_gap() -> GapFunction:
    return GapFunction()


def linear_gap(a: int, b: int) -> GapFunction:
    return GapFunction(a=a, b=b)


def polynomial_gap(c: int) -> GapFunction:
    return GapFunction(c=c)


def tabulated_gap(table: dict, tail=(1, 1)) -> GapFunction:
    return GapFunction(a=tail[0], b=tail[1], table=tuple(table.items()))


# -- the approximation driver ------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    kind: str            # "ABOVE" or "AT_MOST"
    bound: int
    collection_value: int

    def __str__(self):
        return f"{self.kind}({self.bound})"


def approximate(coll: PrimeCollection, gap: GapFunction, g, k) -> Verdict:
    """Dichotomy against the exactly computed collection value.

    If the collection value exceeds gap(k) the target parameter provably
    exceeds k (for a certificate whose upper side holds); otherwise the
    target is at most gap(gap(k)) (for one whose lower side holds).
    """
    p = p_of_collection(coll, g)
    if p > gap(k):
        return Verdict("ABOVE", k, p)
    return Verdict("AT_MOST", gap(gap(k)), p)


@dataclass(frozen=True)
class CertifiedTriple:
    """A (parameter, collection, gap) certificate and where it is valid."""

    kind: ParameterKind
    collection: PrimeCollection
    gap: GapFunction
    sides: frozenset          # subset of {"above", "at_most"}
    scope: str
    corpus: str               # the CORPORA entry its gap was checked on


# -- gap reports ------------------------------------------------------------------


@dataclass(frozen=True)
class GapRow:
    graph: MultiGraph
    parameter: int
    collection: int


@dataclass(frozen=True)
class GapReport:
    kind: ParameterKind
    collection: str
    rows: tuple[GapRow, ...]
    #: max collection value seen at each exact parameter value
    envelope_by_parameter: tuple[tuple[int, int], ...]
    #: max exact parameter value seen at each collection value
    envelope_by_collection: tuple[tuple[int, int], ...]


def gap_report(kind: ParameterKind, coll: PrimeCollection, corpus) -> GapReport:
    rows = []
    for g in sorted(corpus, key=enum_key):
        rows.append(GapRow(g, parameter_value(kind, g), p_of_collection(coll, g)))
    env_p: dict[int, int] = {}
    env_c: dict[int, int] = {}
    for row in rows:
        env_p[row.parameter] = max(env_p.get(row.parameter, 0), row.collection)
        env_c[row.collection] = max(env_c.get(row.collection, 0), row.parameter)
    return GapReport(kind=kind, collection=coll.name, rows=tuple(rows),
                     envelope_by_parameter=tuple(sorted(env_p.items())),
                     envelope_by_collection=tuple(sorted(env_c.items())))


# -- shipped collections and certificates ------------------------------------------

GRID_COLLECTION = PrimeCollection("grids", Relation.MINOR, (GRID_FAMILY,))
TREE_COLLECTION = PrimeCollection(
    "ternary-trees", Relation.MINOR, (TERNARY_TREE_FAMILY,))
DEGREE_COLLECTION = PrimeCollection(
    "thetas-and-stars", Relation.IMMERSION, (THETA_FAMILY, STAR_FAMILY))
BLOCK_COLLECTION = PrimeCollection(
    "apex-trees-and-duals", Relation.MINOR,
    (TERNARY_TREE_APEX_FAMILY, TERNARY_TREE_APEX_DUAL_FAMILY))

COLLECTIONS = {c.name: c for c in
               (GRID_COLLECTION, TREE_COLLECTION, DEGREE_COLLECTION,
                BLOCK_COLLECTION)}

#: certificate name -> CertifiedTriple; sides say which verdicts are backed
#: by an exact solver within the stated scope.
CERTIFICATES = {
    "treewidth": CertifiedTriple(
        TREEWIDTH, GRID_COLLECTION, linear_gap(1, 1),
        frozenset({"above"}),
        "above-side sound everywhere (grid value never undershoots "
        "treewidth by more than one); the at-most side is not certified",
        "simple7"),
    "edge_degree": CertifiedTriple(
        EDGE_DEGREE, DEGREE_COLLECTION, linear_gap(1, 1),
        frozenset({"above", "at_most"}),
        "both sides sound on the theta/star corpus where the collection "
        "value exceeds the edge degree by exactly one",
        "theta_star"),
    "pathwidth": CertifiedTriple(
        PATHWIDTH, TREE_COLLECTION,
        tabulated_gap({0: 1, 1: 2, 2: 2}),
        frozenset({"above", "at_most"}),
        "empirical, corpus-valid only: gap measured on trees with at "
        "most 9 vertices, linear tail beyond the table",
        "trees9"),
}


# -- corpora -----------------------------------------------------------------------


def mixed_corpus(limit=500):
    """The first `limit` graphs of the multiplicity-2 universe, in order."""
    out = []
    for g in enumerate_graphs(6, 2):
        out.append(g)
        if len(out) == limit:
            break
    return out


def theta_star_corpus(k_max=7):
    from .families import star, theta
    corpus = [theta(k) for k in range(1, k_max + 1)]
    corpus += [star(j) for j in range(2, k_max + 1)]
    return corpus


def tree_corpus(n_max=9):
    """All trees up to n_max vertices, plus the empty and one-vertex graphs."""
    import networkx as nx
    out = [MultiGraph(0), MultiGraph(1)]
    for n in range(2, n_max + 1):
        for t in nx.nonisomorphic_trees(n):
            out.append(MultiGraph.build(n, list(t.edges())))
    return out


#: corpus name -> builder; the `--corpus` choices of `universal gap`
CORPORA = {
    "theta_star": theta_star_corpus,
    "trees9": lambda: tree_corpus(9),
    "simple6": lambda: list(enumerate_graphs(6, 1)),
    "simple7": lambda: list(enumerate_graphs(7, 1)),
}


# -- collection files ---------------------------------------------------------------


def format_collection_spec(coll: PrimeCollection) -> str:
    return json.dumps({
        "name": coll.name,
        "relation": coll.relation.value,
        "families": [f.name for f in coll.families],
    }, indent=2) + "\n"


def parse_collection_spec(text: str) -> PrimeCollection:
    data = json.loads(text)
    try:
        relation = data["relation"]
        names = data["families"]
    except KeyError as exc:
        raise ValueError(f"collection spec is missing the {exc.args[0]!r} key")
    return PrimeCollection(
        name=data.get("name", "custom"),
        relation=parse_relation(relation),
        families=tuple(family_by_name(n) for n in names))
