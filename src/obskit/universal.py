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
from .multigraph import (MultiGraph, _forest, enum_key, enumerate_graphs,
                         tree_code)
from .parameters import EDGE_DEGREE, PATHWIDTH, TREEWIDTH, ParameterKind
from .relations import Relation, contains, parse_relation

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
    target is at most gap(gap(k)) (for one whose lower side holds).  The
    gap is checked monotone only from 0, so k must be at least 0.
    """
    if k < 0:
        raise ValueError(f"approximate needs k >= 0, not {k}")
    p = p_of_collection(coll, g)
    if p > gap(k):
        return Verdict("ABOVE", k, p)
    return Verdict("AT_MOST", gap(gap(k)), p)


#: class name -> membership test, for the classes certificates are proved on
_PROOF_CLASSES = {"all graphs": lambda g: True, "forests": _forest}


@dataclass(frozen=True)
class CertifiedTriple:
    """A (parameter, collection, gap) certificate and where it is valid."""

    kind: ParameterKind
    collection: PrimeCollection
    gap: GapFunction
    sides: frozenset          # subset of {"above", "at_most"}
    scope: str
    corpus: str               # the CORPORA entry its gap was checked on
    proved_on: str            # the _PROOF_CLASSES entry its sides hold on

    def certified_sides(self, g: MultiGraph) -> list[str]:
        """The sides proved for g: all of `sides` when g lies in the class
        the proof covers, none otherwise."""
        return sorted(self.sides) if _PROOF_CLASSES[self.proved_on](g) else []


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
        rows.append(GapRow(g, kind.solve(g), p_of_collection(coll, g)))
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

#: certificate name -> CertifiedTriple; sides say which verdicts are proved
#: on the class the certificate names.
CERTIFICATES = {
    "treewidth": CertifiedTriple(
        TREEWIDTH, GRID_COLLECTION, GapFunction(a=1, b=1),
        frozenset({"above"}),
        "above-side sound everywhere (grid value never undershoots "
        "treewidth by more than one); the at-most side is not certified",
        "simple7", "all graphs"),
    "edge_degree": CertifiedTriple(
        EDGE_DEGREE, DEGREE_COLLECTION, GapFunction(a=1, b=1, c=2),
        frozenset({"above", "at_most"}),
        "both sides proved on every multigraph: edge degree is "
        "immersion-monotone and star(m), theta(m) have edge degree m, so "
        "value - 1 <= edge degree; neither star(value) nor theta(value) "
        "immerses, so a vertex has fewer than value neighbours, each joined "
        "by fewer than value edges, and edge degree <= (value - 1)^2",
        "theta_star", "all graphs"),
    "pathwidth": CertifiedTriple(
        PATHWIDTH, TREE_COLLECTION, GapFunction(a=2, b=0, table=((0, 1),)),
        frozenset({"above", "at_most"}),
        "both sides proved on forests: a tree has pathwidth >= k + 1 iff "
        "some vertex has three branches of pathwidth >= k (Ellis, "
        "Sudborough and Turner 1994), so ternary_tree(m) has pathwidth "
        "m // 2 + 1 and pathwidth <= value <= 2 * pathwidth on every tree "
        "with an edge; no side is certified off forests",
        "trees9", "forests"),
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
    """All trees up to n_max vertices, plus the empty and one-vertex graphs.

    Layer n hangs a leaf on every vertex of every tree of layer n - 1 and
    keeps one tree per `tree_code`, which stays linear where a canonical
    form would not.
    """
    layer = [MultiGraph(1)]
    out = [MultiGraph(0)] + layer
    for n in range(2, n_max + 1):
        grown = {}
        for t in layer:
            edges = [(u, v) for u, v, _ in t.edges]
            for v in range(t.n):
                child = MultiGraph.build(n, edges + [(v, n - 1)])
                grown.setdefault(tree_code(child), child)
        layer = list(grown.values())
        out += layer
    return out


#: corpus name -> builder; the `--corpus` choices of `universal gap`
CORPORA = {
    "theta_star": theta_star_corpus,
    "trees9": lambda: tree_corpus(9),
    "simple6": lambda: list(enumerate_graphs(6, 1)),
    "simple7": lambda: list(enumerate_graphs(7, 1)),
}


# -- collection files ---------------------------------------------------------------


def parse_collection_spec(text: str) -> PrimeCollection:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("collection spec must be a JSON object")
    try:
        relation = data["relation"]
        names = data["families"]
    except KeyError as exc:
        raise ValueError(f"collection spec is missing the {exc.args[0]!r} key")
    name = data.get("name", "custom")
    if not (isinstance(relation, str) and isinstance(name, str)
            and isinstance(names, list)
            and all(isinstance(n, str) for n in names)):
        raise ValueError("collection spec needs a string relation, a list of "
                         "family names and, if given, a string name")
    return PrimeCollection(
        name=name,
        relation=parse_relation(relation),
        families=tuple(family_by_name(n) for n in names))
