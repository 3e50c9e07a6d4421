import pytest

import obskit.universal as universal
from hypothesis import given, settings

from obskit.multigraph import MultiGraph, copies
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
    ternary_tree_apex,
    ternary_tree_apex_dual,
    theta,
)
from obskit.obstructions import is_forest, is_outerplanar
from obskit.parameters import edge_degree, pathwidth, treewidth
from obskit.relations import Mode, Relation, contains
from obskit.universal import (
    BLOCK_COLLECTION,
    CERTIFICATES,
    COLLECTIONS,
    CORPORA,
    DEGREE_COLLECTION,
    GRID_COLLECTION,
    TREE_COLLECTION,
    PrimeCollection,
    approximate,
    format_collection_spec,
    gap_report,
    identity_gap,
    linear_gap,
    mixed_corpus,
    p_of_collection,
    p_of_prefix,
    p_of_sequence,
    parse_collection_spec,
    polynomial_gap,
    tabulated_gap,
    theta_star_corpus,
    tree_corpus,
)

from conftest import multigraphs

K3, K4 = complete(3), complete(4)


# -- collection values ------------------------------------------------------------


def test_sequence_values_on_named_graphs():
    assert p_of_sequence(TERNARY_TREE_FAMILY, path(100)) == 1
    assert p_of_sequence(TERNARY_TREE_FAMILY, star(3)) == 2
    assert p_of_sequence(STAR_FAMILY, star(7)) == 8
    assert p_of_sequence(family_by_name("grid"), grid(3)) == 4


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
    assert p_of_sequence(late, path(4)) == 2
    assert p_of_sequence(late, K4) == 5
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
        p_of_sequence(flat, path(10))


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
    assert GRID_COLLECTION.min_base == 2


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
    from obskit.multigraph import delete_vertex

    ta, td = ternary_tree_apex(2), ternary_tree_apex_dual(2)
    two_triangles = copies(2, K3)
    assert contains(Relation.MINOR, two_triangles, td)
    assert any(is_forest(delete_vertex(ta, v)) for v in range(ta.n))
    assert not contains(Relation.MINOR, two_triangles, ta)

    k23 = complete_bipartite(2, 3)
    assert contains(Relation.MINOR, k23, ta)
    assert is_outerplanar(td)
    assert not contains(Relation.MINOR, k23, td)


# -- prefix evaluation -------------------------------------------------------------


def test_p_of_prefix_certified_flag():
    prefix = [grid(k) for k in range(2, 6)]
    assert p_of_prefix(Relation.MINOR, prefix, grid(3), base_index=2) == (4, True)
    assert p_of_prefix(Relation.MINOR, prefix, path(30), base_index=2) == (1, True)
    # prefix exhausted while the last member is still contained
    short = [grid(2), grid(3)]
    assert p_of_prefix(Relation.MINOR, short, complete(10), base_index=2) == (4, False)


def test_p_of_prefix_measures_members_as_contains_does():
    # simple mode sees theta(2) as K2, which path(2) contains
    assert contains(Relation.MINOR, theta(2), path(2))
    assert p_of_prefix(Relation.MINOR, [theta(2)], path(2)) == (2, False)
    assert p_of_prefix(Relation.MINOR, [theta(2)], path(2),
                       mode=Mode.MULTI) == (1, True)


def test_p_of_prefix_empty_prefix_is_uncertified_clamp():
    assert p_of_prefix(Relation.MINOR, [], K3) == (1, False)
    assert p_of_prefix(Relation.MINOR, [], K3, base_index=3) == (2, False)


# -- gap functions -----------------------------------------------------------------


def test_gap_function_forms():
    table = {0: 1, 1: 2, 2: 2}
    t = tabulated_gap(table)
    assert [t(k) for k in range(5)] == [1, 2, 2, 4, 5]  # linear tail past the table
    for k in range(21):
        assert identity_gap()(k) == k
        assert linear_gap(3, 2)(k) == 3 * k + 2
        assert polynomial_gap(3)(k) == k ** 3
        assert t(k) == table.get(k, k + 1)
        assert tabulated_gap(table, tail=(2, 0))(k) == table.get(k, 2 * k)


def test_gap_function_validation():
    with pytest.raises(ValueError):
        linear_gap(-1, 0)
    with pytest.raises(ValueError):
        polynomial_gap(0)
    with pytest.raises(ValueError):
        tabulated_gap({0: 3, 1: 2})  # not nondecreasing
    with pytest.raises(ValueError):
        tabulated_gap({5: 1})  # the closed form runs 1, 2, 3, 4, 5 before it
    with pytest.raises(ValueError):
        tabulated_gap({0: 1, 1: 5})  # the tail drops below the table


def test_gap_functions_are_nondecreasing():
    for gf in (identity_gap(), linear_gap(1, 1), polynomial_gap(2),
               tabulated_gap({0: 1, 1: 2, 2: 2})):
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
    assert (v.kind, v.bound) == ("ABOVE", 3)


def test_certificates_declare_their_sides():
    assert CERTIFICATES["treewidth"].sides == frozenset({"above"})
    assert CERTIFICATES["edge_degree"].sides == frozenset({"above", "at_most"})
    assert CERTIFICATES["pathwidth"].sides == frozenset({"above", "at_most"})
    for cert in CERTIFICATES.values():
        assert cert.scope


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


def test_pathwidth_envelope_matches_shipped_table():
    rep = gap_report(CERTIFICATES["pathwidth"].kind, TREE_COLLECTION,
                     tree_corpus(7))
    env = dict(rep.envelope_by_parameter)
    assert env == {0: 1, 1: 2, 2: 2}


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


def test_collection_spec_roundtrip():
    text = format_collection_spec(BLOCK_COLLECTION)
    again = parse_collection_spec(text)
    assert again == BLOCK_COLLECTION
    with pytest.raises(ValueError):
        parse_collection_spec("{}")
