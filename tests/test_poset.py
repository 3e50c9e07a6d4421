import itertools

import pytest
from hypothesis import given, settings, strategies as st

from obskit.multigraph import MultiGraph
from obskit.families import complete, path, star, ternary_tree
from obskit.poset import (
    MAX_POSET_SIZE,
    FinitePoset,
    chain_partition,
    format_poset_text,
    parse_poset_text,
    poset_from_relations,
    poset_width,
    rado_order,
    rado_star_antichain_witness,
    rado_truncation,
    rationalize,
    sequence_width,
    set_below,
)
from conftest import drop_one_matched_pair
from obskit import poset as poset_module
from obskit.relations import Relation


def diamond():
    return poset_from_relations("abcd", [("a", "b"), ("a", "c"),
                                         ("b", "d"), ("c", "d")])


# -- construction and validation ------------------------------------------------


def test_poset_from_relations_takes_transitive_closure():
    p = poset_from_relations("abc", [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")
    assert not p.leq("c", "a")
    assert p.leq("b", "b")


def test_cycle_is_rejected():
    with pytest.raises(ValueError):
        poset_from_relations("ab", [("a", "b"), ("b", "a")])


def test_direct_construction_is_validated():
    ok = ((True, True), (False, True))
    FinitePoset(("x", "y"), ok)
    with pytest.raises(ValueError):
        FinitePoset(("x", "x"), ok)
    with pytest.raises(ValueError):
        FinitePoset(("x", "y"), ((True,), (False, True)))
    with pytest.raises(ValueError):  # not reflexive
        FinitePoset(("x", "y"), ((False, True), (False, True)))
    bad_transitive = ((True, True, False),
                      (False, True, True),
                      (False, False, True))
    with pytest.raises(ValueError):
        FinitePoset(("x", "y", "z"), bad_transitive)


def test_text_roundtrip():
    p = diamond()
    q = parse_poset_text(format_poset_text(p))
    assert q.labels == p.labels and q.le == p.le
    with pytest.raises(ValueError):
        parse_poset_text("le a b\n")
    with pytest.raises(ValueError):
        parse_poset_text("elem a\nwat a\n")


# -- width and chain partitions ---------------------------------------------------


def test_diamond_width():
    p = diamond()
    assert poset_width(p) == 2
    chains = chain_partition(p)
    assert len(chains) == 2
    assert sorted(x for c in chains for x in c) == list("abcd")
    for c in chains:
        for a, b in zip(c, c[1:]):
            assert p.leq(a, b)


def test_total_order_and_antichain_extremes():
    total = poset_from_relations(range(6), [(i, i + 1) for i in range(5)])
    assert poset_width(total) == 1
    assert chain_partition(total) == [[0, 1, 2, 3, 4, 5]]
    anti = poset_from_relations(range(7), [])
    assert poset_width(anti) == 7
    assert poset_width(FinitePoset((), ())) == 0


def brute_width(p):
    """Largest pairwise incomparable subset, by trying every subset."""
    n = len(p)
    return max(len(s) for r in range(n + 1)
               for s in itertools.combinations(range(n), r)
               if not any(p.le[a][b] for a in s for b in s if a != b))


@settings(max_examples=60)
@given(st.integers(1, 12), st.randoms(use_true_random=False))
def test_dilworth_on_random_posets(n, rng):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4]
    p = poset_from_relations(range(n), pairs)
    w = poset_width(p)
    assert w == brute_width(p)
    chains = chain_partition(p)
    assert len(chains) == w
    assert sorted(x for c in chains for x in c) == list(range(n))
    for c in chains:
        assert all(p.le[a][b] for a, b in zip(c, c[1:]))


def test_a_non_maximum_matching_is_caught(monkeypatch):
    drop_one_matched_pair(monkeypatch)
    p = rado_truncation(10)
    assert len(p) == 55
    with pytest.raises(AssertionError):
        poset_width(p)
    with pytest.raises(AssertionError):
        chain_partition(p)


def test_size_guard():
    n = MAX_POSET_SIZE + 1
    le = tuple(tuple(i == j for j in range(n)) for i in range(n))
    big = FinitePoset(tuple(range(n)), le)
    with pytest.raises(ValueError):
        poset_width(big)
    with pytest.raises(ValueError, match=r"poset too large \(201 > 200\)"):
        parse_poset_text("".join(f"elem e{i}\n" for i in range(n)))
    with pytest.raises(ValueError, match=r"poset too large \(210 > 200\)"):
        rado_truncation(20)


# -- the pair order whose powerset lifting goes bad ---------------------------------


def test_rado_order_basics():
    assert rado_order((0, 1), (0, 5))
    assert rado_order((0, 1), (2, 3))
    assert not rado_order((0, 5), (0, 1))
    assert not rado_order((1, 3), (2, 3))
    assert not rado_order((1, 3), (3, 4))
    with pytest.raises(ValueError):
        rado_order((1, 1), (0, 1))
    with pytest.raises(ValueError):
        rado_order((0, 1), (2, -1))


@pytest.mark.parametrize("n", range(2, 7))
def test_rado_truncations_are_posets(n):
    p = rado_truncation(n)
    assert len(p) == n * (n + 1) // 2
    assert p.leq((0, 1), (0, n))


def test_rado_truncation_width():
    # the top column {(i, 5)} is a maximum antichain
    assert poset_width(rado_truncation(5)) == 5
    assert poset_width(rado_truncation(3)) == 3
    # 190 elements: far beyond any brute-force check, proved by the antichain
    assert poset_width(rado_truncation(19)) == 19
    assert len(chain_partition(rado_truncation(19))) == 19


def test_witness_rows_are_incomparable():
    assert rado_star_antichain_witness(2, 3)
    assert rado_star_antichain_witness(3, 8)
    with pytest.raises(ValueError):
        rado_star_antichain_witness(4, 4)


def test_set_below_hoare_direction():
    le = rado_order
    assert set_below(le, [], [(0, 1)])
    assert set_below(le, [(0, 1), (0, 2)], [(0, 5)])
    assert not set_below(le, [(3, 4)], [(0, 1)])


# -- graph sequence prefixes --------------------------------------------------------


def interleaved_prefix():
    return [path(3), star(3), path(5), star(4), path(7), star(5)]


def test_sequence_width_of_interleaved_prefix():
    assert sequence_width(interleaved_prefix(), Relation.MINOR) == 2
    assert sequence_width([path(k) for k in (2, 4, 6)], Relation.MINOR) == 1


def test_sequence_width_merges_isomorphic_repeats():
    rerouted = MultiGraph.build(4, [(0, 2), (2, 3), (3, 1)])
    assert sequence_width([path(4), rerouted], Relation.MINOR) == 1


def test_sequence_width_handles_large_trees():
    assert sequence_width([ternary_tree(k) for k in range(1, 5)],
                          Relation.MINOR) == 1


def test_rationalize_splits_paths_from_stars():
    res = rationalize(interleaved_prefix(), Relation.MINOR)
    assert len(res.chains) == 2
    assert len(res.candidates) == 2
    for chain in res.chains:
        assert chain.growing
        for a, b in zip(chain.graphs, chain.graphs[1:]):
            from obskit.relations import contains
            assert contains(Relation.MINOR, a, b)


def test_rationalize_drops_stalled_chains():
    # the single triangle stops early; the path chain keeps growing
    prefix = [complete(3), path(2), path(4), path(6), path(8), path(10)]
    res = rationalize(prefix, Relation.MINOR)
    growing = [c for c in res.chains if c.growing]
    assert len(res.chains) == 2
    assert len(growing) == 1
    assert list(res.candidates) == growing


def test_rationalize_orders_large_trees_without_canonical_forms():
    res = rationalize([complete(3), ternary_tree(3)], Relation.MINOR)
    assert [c.graphs for c in res.chains] == [(complete(3),), (ternary_tree(3),)]
    assert [c.growing for c in res.chains] == [False, True]
    assert [c.graphs for c in res.candidates] == [(ternary_tree(3),)]


def test_rationalize_asks_no_containment_after_building_the_poset(monkeypatch):
    calls = []
    real_contains, real_prefix = poset_module.contains, poset_module._prefix_poset

    def counted(*args, **kwargs):
        calls.append(args)
        return real_contains(*args, **kwargs)

    def prefix_poset(*args, **kwargs):
        out = real_prefix(*args, **kwargs)
        calls.append("built")
        return out

    monkeypatch.setattr(poset_module, "contains", counted)
    monkeypatch.setattr(poset_module, "_prefix_poset", prefix_poset)
    res = rationalize(interleaved_prefix(), Relation.MINOR)
    assert len(res.candidates) == 2
    assert calls[-1] == "built" and len(calls) > 1
