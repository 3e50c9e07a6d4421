from collections import Counter

import pytest

import obskit.universal as universal
from hypothesis import given, settings

from obskit.multigraph import MultiGraph, enum_key, enumerate_graphs
from obskit.families import (
    ParametricFamily,
    STAR_FAMILY,
    TERNARY_TREE_FAMILY,
    complete,
    complete_bipartite,
    family_by_name,
    grid,
    path,
    star,
    ternary_tree,
    ternary_tree_apex,
    ternary_tree_apex_dual,
    theta,
)
from obskit.obstructions import is_forest, is_outerplanar
from obskit.relations import Relation, contains
from obskit.universal import (
    BLOCK_COLLECTION,
    CERTIFICATES,
    COLLECTIONS,
    CORPORA,
    DEGREE_COLLECTION,
    GRID_COLLECTION,
    TREE_COLLECTION,
    GapFunction,
    PrimeCollection,
    approximate,
    gap_report,
    mixed_corpus,
    p_of_collection,
    parse_collection_spec,
    theta_star_corpus,
    tree_corpus,
)

from conftest import copies, multigraphs

K3, K4 = complete(3), complete(4)


def alone(fam):
    """The one-family collection of fam."""
    return PrimeCollection(fam.name, fam.relation, (fam,))


# -- collection values ------------------------------------------------------------


def test_sequence_values_on_named_graphs():
    assert p_of_collection(alone(TERNARY_TREE_FAMILY), path(100)) == 1
    assert p_of_collection(alone(TERNARY_TREE_FAMILY), star(3)) == 2
    assert p_of_collection(alone(STAR_FAMILY), star(7)) == 8
    assert p_of_collection(alone(family_by_name("grid")), grid(3)) == 4


def test_collection_values_on_named_graphs():
    assert p_of_collection(GRID_COLLECTION, grid(3)) == 4
    assert p_of_collection(GRID_COLLECTION, grid(2)) == 3
    assert p_of_collection(DEGREE_COLLECTION, theta(5)) == 6
    assert p_of_collection(DEGREE_COLLECTION, star(7)) == 8
    assert p_of_collection(TREE_COLLECTION, path(100)) == 1


def test_bottom_values_clamp_at_one():
    assert p_of_collection(GRID_COLLECTION, MultiGraph(0)) == 1
    assert p_of_collection(GRID_COLLECTION, MultiGraph(1)) == 1
    assert p_of_collection(DEGREE_COLLECTION, MultiGraph(1)) == 1


def test_clamp_holds_for_a_family_starting_above_two():
    # K_k from k = 3: a host without K3 gets the clamped value 2
    late = ParametricFamily("complete_from_3", 3, Relation.MINOR, complete)
    assert p_of_collection(alone(late), path(4)) == 2
    assert p_of_collection(alone(late), K4) == 5
    both = PrimeCollection("late_and_paths", Relation.MINOR,
                           (late, family_by_name("path")))
    assert p_of_collection(both, path(4)) == 5
    assert p_of_collection(both, MultiGraph(0)) == 2


@settings(max_examples=30)
@given(multigraphs(max_n=5, max_mult=2))
def test_both_evaluation_forms_agree(g):
    # the implementation recomputes each value two ways and raises on a
    # mismatch, so surviving the call is the assertion
    for coll in COLLECTIONS.values():
        assert p_of_collection(coll, g) >= 1


def test_non_growing_family_is_rejected():
    flat = ParametricFamily("flat", 1, Relation.MINOR, lambda k: path(3))
    with pytest.raises(ValueError, match="does not grow strictly at index 2"):
        p_of_collection(alone(flat), path(10))


def test_both_forms_share_one_member_scan(monkeypatch):
    # both formulas read one memo, so a member tested twice on the same host
    # would raise these counts over mixed_corpus(200)
    calls = []

    def counting(rel, h, g, **kw):
        calls.append(h)
        return contains(rel, h, g, **kw)

    monkeypatch.setattr(universal, "contains", counting)
    corpus = mixed_corpus(200)
    counts = {}
    for name, coll in COLLECTIONS.items():
        before = len(calls)
        for g in corpus:
            p_of_collection(coll, g)
        counts[name] = len(calls) - before
    assert counts == {"grids": 260, "ternary-trees": 316,
                      "thetas-and-stars": 1596, "apex-trees-and-duals": 400}
    assert sum(counts.values()) == 2572


def test_collection_value_monotone_under_growing_host():
    hosts = [grid(k) for k in range(2, 5)]
    vals = [p_of_collection(GRID_COLLECTION, h) for h in hosts]
    assert vals == sorted(vals) == [3, 4, 5]


def test_prime_collection_validation():
    with pytest.raises(ValueError):
        PrimeCollection("empty", Relation.MINOR, ())
    with pytest.raises(ValueError):
        PrimeCollection("mixed", Relation.MINOR,
                        (STAR_FAMILY,))  # star family is immersion-ordered


def test_shipped_collections_shape():
    assert set(COLLECTIONS) == {"grids", "ternary-trees", "thetas-and-stars",
                                "apex-trees-and-duals"}
    assert GRID_COLLECTION.relation is Relation.MINOR
    assert DEGREE_COLLECTION.relation is Relation.IMMERSION
    assert len(BLOCK_COLLECTION.families) == 2


def test_block_collection_families_are_incomparable():
    """Neither family of the two-family collection dominates the other.

    Checked at index 2 through facts a reader can confirm by hand: the dual
    shape holds two disjoint triangles while the plain apex shape is one
    vertex away from a forest, and the plain apex shape holds K_{2,3} while
    the dual shape is outerplanar.
    """
    from obskit.multigraph import delete_vertices

    ta, td = ternary_tree_apex(2), ternary_tree_apex_dual(2)
    two_triangles = copies(2, K3)
    assert contains(Relation.MINOR, two_triangles, td)
    assert any(is_forest(delete_vertices(ta, (v,))) for v in range(ta.n))
    assert not contains(Relation.MINOR, two_triangles, ta)

    k23 = complete_bipartite(2, 3)
    assert contains(Relation.MINOR, k23, ta)
    assert is_outerplanar(td)
    assert not contains(Relation.MINOR, k23, td)


# -- gap functions -----------------------------------------------------------------


def test_gap_function_forms():
    table = GapFunction(b=1, table=((0, 1), (1, 2), (2, 2)))
    assert [table(k) for k in range(5)] == [1, 2, 2, 4, 5]  # linear tail past the table
    for k in range(21):
        assert GapFunction()(k) == k
        assert GapFunction(a=3, b=2)(k) == 3 * k + 2
        assert GapFunction(c=3)(k) == k ** 3
        assert table(k) == {0: 1, 1: 2, 2: 2}.get(k, k + 1)
        assert GapFunction(a=2, table=((0, 1),))(k) == (2 * k or 1)
        assert GapFunction(b=1, c=2)(k) == k * k + 1


def test_gap_function_validation():
    with pytest.raises(ValueError):
        GapFunction(a=-1)
    with pytest.raises(ValueError):
        GapFunction(c=0)
    with pytest.raises(ValueError):
        GapFunction(b=1, table=((0, 3), (1, 2)))  # not nondecreasing
    with pytest.raises(ValueError):
        GapFunction(b=1, table=((5, 1),))  # the closed form runs 1, 2, 3, 4, 5 before it
    with pytest.raises(ValueError):
        GapFunction(b=1, table=((0, 1), (1, 5)))  # the tail drops below the table


def test_gap_functions_are_nondecreasing():
    for gf in (GapFunction(), GapFunction(b=1), GapFunction(c=2),
               GapFunction(b=1, table=((0, 1), (1, 2), (2, 2))),
               *(cert.gap for cert in CERTIFICATES.values())):
        vals = [gf(k) for k in range(8)]
        assert vals == sorted(vals)


# -- verdicts ----------------------------------------------------------------------


def test_approximate_verdicts_pinned():
    cert = CERTIFICATES["treewidth"]
    v = approximate(cert.collection, cert.gap, grid(4), 2)
    assert (v.kind, v.bound) == ("ABOVE", 2)
    v = approximate(cert.collection, cert.gap, path(10), 2)
    assert (v.kind, v.bound) == ("AT_MOST", 4)
    assert str(v) == "AT_MOST(4)"
    cert = CERTIFICATES["edge_degree"]
    v = approximate(cert.collection, cert.gap, star(6), 3)
    assert (v.kind, v.bound) == ("AT_MOST", 101)
    v = approximate(cert.collection, cert.gap, star(6), 2)
    assert (v.kind, v.bound) == ("ABOVE", 2)


def test_approximate_rejects_a_negative_k():
    cert = CERTIFICATES["edge_degree"]
    assert cert.gap(-3) > cert.gap(0)
    with pytest.raises(ValueError, match="k >= 0"):
        approximate(cert.collection, cert.gap, path(3), -1)


def test_certificates_declare_their_sides():
    assert CERTIFICATES["treewidth"].sides == frozenset({"above"})
    assert CERTIFICATES["edge_degree"].sides == frozenset({"above", "at_most"})
    assert CERTIFICATES["pathwidth"].sides == frozenset({"above", "at_most"})
    for cert in CERTIFICATES.values():
        assert cert.scope
    assert {name: cert.proved_on for name, cert in CERTIFICATES.items()} == {
        "treewidth": "all graphs", "edge_degree": "all graphs",
        "pathwidth": "forests"}
    # K_8 has ternary-tree value 2 and pathwidth 7: off forests no side holds
    cert = CERTIFICATES["pathwidth"]
    assert approximate(cert.collection, cert.gap, complete(8), 1).bound == 4
    assert cert.certified_sides(complete(8)) == []
    assert cert.certified_sides(path(5)) == ["above", "at_most"]


def test_certified_sides_hold_beyond_the_corpora(monkeypatch):
    """Every side a certificate reports for a graph holds, for k = 0..5, on
    all trees up to 12 vertices, ternary_tree(1..3) and every graph of
    enumerate_graphs(4, 3).

    ternary_tree(3) is past the width solvers' 16-vertex cap, so its values
    come from theory: a tree with an edge has treewidth 1, and
    ternary_tree(m) has pathwidth m // 2 + 1.
    """
    real = universal.p_of_collection
    values = {}

    def once(coll, g):
        # approximate reads the value once per k; scan each graph once
        if (coll.name, g) not in values:
            values[coll.name, g] = real(coll, g)
        return values[coll.name, g]

    monkeypatch.setattr(universal, "p_of_collection", once)
    graphs = [(g, {}) for g in tree_corpus(12)]
    graphs += [(ternary_tree(1), {}), (ternary_tree(2), {}),
               (ternary_tree(3), {"treewidth": 1, "pathwidth": 2})]
    graphs += [(g, {}) for g in enumerate_graphs(4, 3)]
    assert len(graphs) == 988 + 3 + 302
    broken = []
    for name, cert in CERTIFICATES.items():
        for g, known in graphs:
            sides = cert.certified_sides(g)
            if not sides:
                continue
            exact = known.get(cert.kind.tag)
            if exact is None:
                exact = cert.kind.solve(g)
            for k in range(6):
                v = approximate(cert.collection, cert.gap, g, k)
                if (v.kind == "ABOVE" and "above" in sides and exact <= k
                        or v.kind == "AT_MOST" and "at_most" in sides
                        and exact > v.bound):
                    broken.append((name, g, k, str(v), exact))
    assert broken == []


def test_certificates_name_their_corpora():
    assert list(CORPORA) == ["theta_star", "trees9", "simple6", "simple7"]
    assert {name: cert.corpus for name, cert in CERTIFICATES.items()} == {
        "treewidth": "simple7", "edge_degree": "theta_star",
        "pathwidth": "trees9"}


# -- gap reports -------------------------------------------------------------------


def test_edge_degree_gap_is_exactly_one():
    corpus = theta_star_corpus()
    rep = gap_report(CERTIFICATES["edge_degree"].kind, DEGREE_COLLECTION, corpus)
    assert len(rep.rows) == len(corpus)
    for row in rep.rows:
        assert row.collection - row.parameter == 1


def test_pathwidth_envelope_on_trees_up_to_7_vertices():
    cert = CERTIFICATES["pathwidth"]
    rep = gap_report(cert.kind, TREE_COLLECTION, tree_corpus(7))
    env = dict(rep.envelope_by_parameter)
    assert env == {0: 1, 1: 2, 2: 2}
    # the envelope is what the corpus shows; the certificate's gap covers it
    assert all(v <= cert.gap(k) for k, v in env.items())


def test_envelope_by_collection_inverts():
    rep = gap_report(CERTIFICATES["edge_degree"].kind, DEGREE_COLLECTION,
                     theta_star_corpus(4))
    for cval, pmax in rep.envelope_by_collection:
        assert pmax == cval - 1


# -- corpora and serialization -------------------------------------------------


def test_corpora_are_deterministic_and_sized():
    c1, c2 = mixed_corpus(60), mixed_corpus(60)
    assert c1 == c2 and len(c1) == 60
    assert len(theta_star_corpus()) == 13
    trees = tree_corpus(7)
    assert [g.n for g in trees[:4]] == [0, 1, 2, 3]
    assert len(trees) == 2 + sum([1, 1, 2, 3, 6, 11])


def test_tree_corpus_matches_networkx():
    import networkx as nx

    trees = tree_corpus(12)
    # OEIS A000055: trees on n = 1..12 vertices, plus K0
    counts = Counter(g.n for g in trees)
    assert [counts[n] for n in range(13)] == [
        1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
    oracle = [MultiGraph(0), MultiGraph(1)] + [
        MultiGraph.build(n, list(t.edges()))
        for n in range(2, 13) for t in nx.nonisomorphic_trees(n)]
    assert Counter(map(enum_key, trees)) == Counter(map(enum_key, oracle))


def test_collection_spec_roundtrip():
    text = ('{"name": "apex-trees-and-duals", "relation": "minor", "families": '
            '["ternary_tree_apex", "ternary_tree_apex_dual"]}')
    again = parse_collection_spec(text)
    assert again == BLOCK_COLLECTION
    with pytest.raises(ValueError):
        parse_collection_spec("{}")
