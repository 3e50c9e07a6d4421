import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from obskit.multigraph import (MultiGraph, _component_mask, contract_edge,
                               delete_edge, delete_vertices, enumerate_graphs)
from obskit.families import (
    complete,
    complete_bipartite,
    fan,
    grid,
    path,
    star,
    ternary_tree,
    ternary_tree_apex,
    theta,
)
from obskit import parameters as P
from obskit.parameters import (
    BI_PATHWIDTH,
    CUTWIDTH,
    EDGE_DEGREE,
    PATHWIDTH,
    TREEWIDTH,
    ParameterKind,
    bi_pathwidth,
    cutwidth,
    edge_degree,
    is_z_apex_witness,
    layout_cutwidth_cost,
    layout_pathwidth_cost,
    layout_treewidth_cost,
    parse_kind,
    pathwidth,
    treewidth,
    treewidth_by_elimination,
    z_apex,
    z_apex_kind,
)
from obskit.relations import Relation

from conftest import multigraphs

K3, K4, K5 = complete(3), complete(4), complete(5)


# width values on the standard shapes; all checked against independent
# solvers at least once before being frozen here
FROZEN = [
    # graph,            tw, pw, cw, edeg, bipw
    (grid(2),            2,  2,  2,  2,  2),
    (grid(3),            3,  3,  4,  4,  3),
    (ternary_tree(1),    1,  1,  2,  3,  1),
    (ternary_tree(2),    1,  2,  3,  3,  1),
    (ternary_tree_apex(2), 2, 3,  5,  6,  3),
    (theta(4),           1,  1,  4,  4,  1),
    (star(5),            1,  1,  3,  5,  1),
    (path(6),            1,  1,  1,  2,  1),
    (K4,                 3,  3,  4,  3,  3),
    (K5,                 4,  4,  6,  4,  4),
    (complete_bipartite(2, 3), 2, 2, 3, 3, 2),
    (fan(5),             2,  2,  3,  4,  2),
    (MultiGraph(0),      0,  0,  0,  0,  0),
    (MultiGraph(1),      0,  0,  0,  0,  0),
]


@pytest.mark.parametrize("g,tw,pw,cw,edeg,bipw", FROZEN)
def test_frozen_width_values(g, tw, pw, cw, edeg, bipw):
    assert treewidth(g)[0] == tw
    assert pathwidth(g)[0] == pw
    assert cutwidth(g)[0] == cw
    assert edge_degree(g) == edeg
    assert bi_pathwidth(g) == bipw


def test_treewidth_empty_and_edgeless():
    assert treewidth(MultiGraph(4))[0] == 0
    assert treewidth_by_elimination(MultiGraph(0)) == 0


def test_cutwidth_counts_multiplicities():
    assert cutwidth(theta(2))[0] == 2
    assert cutwidth(theta(7))[0] == 7
    assert cutwidth(MultiGraph.build(3, [(0, 1, 3), (1, 2, 3)]))[0] == 3


def test_size_caps_raise():
    from obskit.multigraph import BudgetExceededError
    with pytest.raises(BudgetExceededError):
        treewidth(path(P.MAX_TREEWIDTH_VERTICES + 1))
    with pytest.raises(BudgetExceededError):
        cutwidth(path(P.MAX_CUTWIDTH_VERTICES + 1))
    with pytest.raises(BudgetExceededError):
        z_apex(path(P.MAX_Z_APEX_VERTICES + 1), [K3])
    assert P.MAX_TREEWIDTH_VERTICES == P.MAX_PATHWIDTH_VERTICES == 16
    for solver in (treewidth_by_elimination, pathwidth, bi_pathwidth):
        with pytest.raises(BudgetExceededError):
            solver(path(17))


@settings(max_examples=60)
@given(multigraphs(max_n=8, max_mult=1, min_n=0))
def test_two_treewidth_solvers_agree(g):
    assert treewidth(g)[0] == treewidth_by_elimination(g)


def _treewidth_by_elimination_per_vertex(g):
    """The elimination DP before components were priced once: for each set
    and each vertex in it, grow the vertex's component anew."""
    g = g.simplify()
    n = g.n
    nmask = g.neighbor_masks
    full = (1 << n) - 1
    size = 1 << n
    dp = [n] * size
    dp[0] = 0
    for s in range(1, size):
        best = n
        for v in range(n):
            bit = 1 << v
            if not s & bit:
                continue
            prev = s ^ bit
            if dp[prev] >= best:
                continue
            comp = _component_mask(v, prev | bit, nmask)
            cost = (P._mask_neighbors(comp, nmask) & full & ~(prev | bit)).bit_count()
            val = dp[prev] if dp[prev] > cost else cost
            if val < best:
                best = val
        dp[s] = best
    return dp[full]


def _gnp(rng, n, p):
    return MultiGraph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p])


def test_elimination_dp_matches_the_per_vertex_loop():
    rng = random.Random(2901)
    graphs = list(enumerate_graphs(7, 1)) + list(enumerate_graphs(5, 2))
    graphs += [MultiGraph(0), MultiGraph(1), MultiGraph(9)]
    graphs += [_gnp(rng, n, p) for n in range(9, 17) for p in (0.3, 0.6)]
    for g in graphs:
        assert treewidth_by_elimination(g) == _treewidth_by_elimination_per_vertex(g), g


def test_elimination_dp_uses_no_search_helper(monkeypatch):
    # the oracle shares only simplify and neighbor_masks with `treewidth`
    graphs = list(enumerate_graphs(6, 1))
    expected = [treewidth_by_elimination(g) for g in graphs]

    def forbidden(*args, **kwargs):
        raise AssertionError("treewidth_by_elimination called a search helper")
    for name in ("_component_mask", "_mask_neighbors", "_tw_bounds",
                 "_minor_min_width", "_layout_search"):
        monkeypatch.setattr(P, name, forbidden)
    assert [treewidth_by_elimination(g) for g in graphs] == expected


def test_treewidth_bounds_hold_exhaustively():
    graphs = list(enumerate_graphs(7, 1)) + list(enumerate_graphs(5, 2))
    graphs += [MultiGraph(0), MultiGraph(1), MultiGraph(5),
               MultiGraph.build(3, [(0, 1, 3), (1, 2, 2), (0, 2, 1)])]
    open_graphs = 0
    for g in graphs:
        lo, hi, order = P._tw_bounds(g)
        oracle = treewidth_by_elimination(g)
        assert lo <= oracle <= hi, g
        assert layout_treewidth_cost(g, P.Layout(tuple(reversed(order)))) == hi
        value, lay = treewidth(g)
        assert layout_treewidth_cost(g, lay) == value == oracle, g
        open_graphs += lo < hi
    assert open_graphs >= 1  # the DP path stays covered
    assert P._tw_bounds(MultiGraph(0)) == (0, 0, [])
    assert P._tw_bounds(MultiGraph(1))[:2] == (0, 0)
    assert P._tw_bounds(MultiGraph(5))[:2] == (0, 0)
    assert P._tw_bounds(MultiGraph.build(2, [(0, 1, 4)]))[:2] == (1, 1)


# two 7-vertex graphs the bounds leave open: treewidth meets lo, then hi
OPEN_AT_LO = MultiGraph.build(7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6),
                                  (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6),
                                  (4, 5), (4, 6), (5, 6)])
OPEN_AT_HI = MultiGraph.build(7, [(0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 6),
                                  (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6),
                                  (4, 5)])


def test_open_bounds_run_the_dp_and_check_its_value(monkeypatch):
    assert P._tw_bounds(OPEN_AT_LO)[:2] == (4, 5)
    assert treewidth(OPEN_AT_LO)[0] == 4
    assert P._tw_bounds(OPEN_AT_HI)[:2] == (3, 4)
    assert treewidth(OPEN_AT_HI)[0] == 4
    monkeypatch.setattr(P, "_layout_search", lambda n, step, lo, hi, order:
                        (2, P.Layout(tuple(range(n)))))
    with pytest.raises(AssertionError, match="2 outside its bounds lo=3, hi=4"):
        treewidth(OPEN_AT_HI)


# -- reference: the full-table DP that the bisecting search replaced ---------------


def _table_dp(n, cost):
    """Least worst cost(prev, v) over all vertex orders, filling all 2^n states."""
    size = 1 << n
    dp = [0] * size
    for s in range(1, size):
        best = float("inf")
        m = s
        while m:
            bit = m & -m
            m ^= bit
            prev = s ^ bit
            d = dp[prev]
            if d >= best:
                continue
            c = cost(prev, bit.bit_length() - 1)
            val = d if d > c else c
            if val < best:
                best = val
        dp[s] = best
    return dp[size - 1]


def _reference_pathwidth(g):
    g = g.simplify()
    nmask, full = g.neighbor_masks, (1 << g.n) - 1
    boundary = [0] * (1 << g.n)
    for s in range(1 << g.n):
        m = s
        while m:
            low = m & -m
            boundary[s] += bool(nmask[low.bit_length() - 1] & ~s & full)
            m ^= low
    return _table_dp(g.n, lambda prev, v: boundary[prev])


def _reference_cutwidth(g):
    cut = [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        low = s & -s
        prev = s ^ low
        cut[s] = cut[prev] + sum(-m if prev >> w & 1 else m
                                 for w, m in g.adj[low.bit_length() - 1].items())
    return _table_dp(g.n, lambda prev, v: cut[prev | 1 << v])


def _reference_treewidth(g):
    g = g.simplify()
    nmask, full = g.neighbor_masks, (1 << g.n) - 1

    def cost(prev, v):
        comp = _component_mask(v, full & ~prev, nmask)
        return (P._mask_neighbors(comp, nmask) & prev).bit_count()
    return _table_dp(g.n, cost)


def _random_connected(rng, n, m):
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return MultiGraph.build(n, sorted(edges))


def _oracle_graphs():
    rng = random.Random(1207)
    yield from enumerate_graphs(7, 1)
    yield from enumerate_graphs(5, 2)
    for n in range(9, 14):
        for m in (n, 3 * n // 2, 2 * n):
            yield _random_connected(rng, n, m)
    yield complete(13)
    yield complete_bipartite(7, 7)
    yield MultiGraph.build(9, [(0, 1, 3), (1, 2), (2, 3, 2), (3, 0), (0, 4, 4),
                               (4, 5), (5, 6, 2), (6, 7), (7, 8, 3), (8, 4),
                               (2, 6), (1, 5, 2)])


def test_layout_search_matches_the_table_dp():
    open_graphs = 0
    for g in _oracle_graphs():
        pw, lay = pathwidth(g)
        assert layout_pathwidth_cost(g, lay) == pw == _reference_pathwidth(g), g
        cw, lay = cutwidth(g)
        assert layout_cutwidth_cost(g, lay) == cw == _reference_cutwidth(g), g
        assert bi_pathwidth(g) == max(
            (_reference_pathwidth(b) for b in P._blocks(g)), default=0), g
        tw, lay = treewidth(g)
        assert layout_treewidth_cost(g, lay) == tw, g
        lo, hi, _ = P._tw_bounds(g)
        if lo < hi:
            assert tw == _reference_treewidth(g), g
            open_graphs += 1
    assert open_graphs >= 3  # the search between the bounds stays covered


def test_layout_search_leaves_no_cycles_behind():
    # each probe's hopeless-prefix set goes when the probe returns, so the
    # solvers' memory and the collector's work do not depend on when it runs
    graphs = (complete_bipartite(7, 7), OPEN_AT_HI, grid(3))
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            treewidth(g), pathwidth(g), cutwidth(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=40)
@given(multigraphs(max_n=6, max_mult=2))
def test_layouts_witness_their_widths(g):
    tw, lay = treewidth(g)
    assert layout_treewidth_cost(g, lay) == tw
    pw, lay = pathwidth(g)
    assert layout_pathwidth_cost(g, lay) == pw
    cw, lay = cutwidth(g)
    assert layout_cutwidth_cost(g, lay) == cw


@pytest.mark.parametrize("solver,checker", [
    (treewidth, layout_treewidth_cost),
    (pathwidth, layout_pathwidth_cost),
    (cutwidth, layout_cutwidth_cost),
])
def test_layout_solvers_are_optimal_on_small_universes(solver, checker):
    graphs = list(enumerate_graphs(5, 1)) + list(enumerate_graphs(4, 2))
    assert len(graphs) == 134
    for g in graphs:
        value, lay = solver(g)
        assert checker(g, lay) == value
        assert value == min(checker(g, P.Layout(order))
                            for order in itertools.permutations(range(g.n)))


@settings(max_examples=30)
@given(multigraphs(max_n=6, max_mult=1, min_n=1))
def test_minor_steps_never_raise_treewidth(g):
    tw = treewidth(g)[0]
    for v in range(g.n):
        assert treewidth(delete_vertices(g, (v,)))[0] <= tw
    for u, v, _ in g.edges:
        assert treewidth(delete_edge(g, u, v))[0] <= tw
        assert treewidth(contract_edge(g, u, v, simple=True))[0] <= tw


def test_pathwidth_sandwich():
    for g in (grid(3), K4, fan(5), ternary_tree(2), theta(3)):
        tw = treewidth(g)[0]
        pw = pathwidth(g)[0]
        assert tw <= pw
        assert cutwidth(g)[0] >= pw  # layouts refine


# -- apex deletion distance ------------------------------------------------------


def test_z_apex_values():
    assert z_apex(K5, [K3]) == (3, (0, 1, 2))
    assert z_apex(K4, [K3])[0] == 2
    assert z_apex(path(6), [K3]) == (0, ())
    assert z_apex(grid(3), [K4, complete_bipartite(2, 3)])[0] == 1


def test_z_apex_witness_checker():
    assert is_z_apex_witness(K5, [K3], (0, 1, 2))
    assert not is_z_apex_witness(K5, [K3], (0, 1))
    assert is_z_apex_witness(path(6), [K3], ())


def test_z_apex_with_nothing_to_exclude_is_zero():
    assert z_apex(K4, []) == (0, ())


# -- kinds ------------------------------------------------------------------------


def test_parse_kind_identity_and_aliases():
    assert parse_kind("treewidth") is TREEWIDTH
    assert parse_kind("tw") is TREEWIDTH
    assert parse_kind("pw") is PATHWIDTH
    assert parse_kind("cutwidth") is CUTWIDTH
    assert parse_kind("bi_pathwidth") is BI_PATHWIDTH
    assert parse_kind("edge_degree") is EDGE_DEGREE
    with pytest.raises(ValueError):
        parse_kind("chromatic")


def test_monotone_relations_per_kind():
    assert TREEWIDTH.monotone_relation is Relation.MINOR
    assert PATHWIDTH.monotone_relation is Relation.MINOR
    assert BI_PATHWIDTH.monotone_relation is Relation.MINOR
    assert CUTWIDTH.monotone_relation is Relation.IMMERSION
    assert EDGE_DEGREE.monotone_relation is Relation.IMMERSION
    zk = z_apex_kind([K3])
    assert zk.monotone_relation is Relation.MINOR
    assert zk.z_list == (K3,)


def test_each_kind_row_solves_with_its_own_solver():
    for g in (K4, theta(4), grid(3), ternary_tree_apex(2), MultiGraph(0)):
        assert TREEWIDTH.solve(g) == treewidth(g)[0]
        assert PATHWIDTH.solve(g) == pathwidth(g)[0]
        assert CUTWIDTH.solve(g) == cutwidth(g)[0]
        assert BI_PATHWIDTH.solve(g) == bi_pathwidth(g)
        assert EDGE_DEGREE.solve(g) == edge_degree(g)
    assert z_apex_kind([K3]).solve(K5) == 3


def test_kind_rows_compare_and_hash_without_the_solver():
    assert z_apex_kind([K3]) == z_apex_kind((K3,))
    assert hash(z_apex_kind([K3])) == hash(z_apex_kind([K3]))
    assert z_apex_kind([K3]) != z_apex_kind([K4])
    assert TREEWIDTH == ParameterKind("treewidth", Relation.MINOR, lambda g: -1)
    assert TREEWIDTH != ParameterKind("treewidth", Relation.IMMERSION, lambda g: -1)
    assert "solve" not in repr(TREEWIDTH)
    assert str(CUTWIDTH) == "cutwidth"


def test_parse_kind_builds_z_apex_around_its_list():
    assert parse_kind(" Z-Apex ", [K3]) == z_apex_kind([K3])
    for name in ("z_apex", "zapex"):
        with pytest.raises(ValueError, match="z_apex needs"):
            parse_kind(name)
    assert parse_kind("ed", [K3]) is EDGE_DEGREE


def test_z_apex_refuses_an_empty_forbidden_minor():
    # every graph, K0 included, has K0 as a minor: no deletion set exists
    for g in (K3, MultiGraph(0)):
        with pytest.raises(ValueError, match="K0"):
            z_apex(g, [K3, MultiGraph(0)])
        with pytest.raises(ValueError, match="K0"):
            z_apex_kind([MultiGraph(0)]).solve(g)
