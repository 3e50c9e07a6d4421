import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

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
    set_below,
)
from conftest import drop_one_matched_pair


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


def networkx_width(p):
    """n minus the size of networkx's maximum matching along the strict order."""
    import networkx as nx

    n = len(p)
    B = nx.Graph()
    B.add_nodes_from(range(2 * n))
    B.add_edges_from((i, n + j) for i in range(n) for j in range(n)
                     if i != j and p.le[i][j])
    return n - len(nx.bipartite.maximum_matching(B, top_nodes=range(n))) // 2


@pytest.mark.parametrize("seed, density", [(1, 0.02), (2, 0.1), (3, 0.3), (4, 0.7)])
def test_width_matches_networkx_on_random_posets(seed, density):
    rng = random.Random(seed)
    for n in (0, 1, 2, 5, 12, 30, 75, 140, 200):
        p = poset_from_relations(range(n), [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < density])
        assert poset_width(p) == networkx_width(p)


@pytest.mark.parametrize("n", range(2, 20))
def test_width_matches_networkx_on_rado_truncations(n):
    p = rado_truncation(n)
    assert poset_width(p) == networkx_width(p) == n


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
    for m, n in ((4, 4), (0, 1), (-3, 5)):
        with pytest.raises(ValueError, match="need 1 <= m < n"):
            rado_star_antichain_witness(m, n)


def test_witness_columns_are_capped_like_a_poset():
    assert rado_star_antichain_witness(3, MAX_POSET_SIZE)
    for m, n in ((2, MAX_POSET_SIZE + 1), (1000, 2000)):
        with pytest.raises(ValueError, match=rf"poset too large \({n} > 200\)"):
            rado_star_antichain_witness(m, n)


def test_set_below_hoare_direction():
    le = rado_order
    assert set_below(le, [], [(0, 1)])
    assert set_below(le, [(0, 1), (0, 2)], [(0, 5)])
    assert not set_below(le, [(3, 4)], [(0, 1)])
