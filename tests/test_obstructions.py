import networkx as nx
import pytest

from obskit import multigraph
from obskit.multigraph import (BudgetExceededError, MultiGraph, _children,
                               _grow_closed, _is_tree, _layer, canonical_form,
                               enumerate_graphs, tree_code)
from obskit.families import complete, complete_bipartite, grid, path, star, theta
from obskit.obstructions import (
    BUILTIN_CLASSES,
    NonClosedPredicateError,
    ObstructionReport,
    compute_obstructions,
    fixture_graphs,
    is_apex_forest,
    is_forest,
    is_outerplanar,
    is_star_or_edgeless,
    is_subcubic_forest,
    is_theta_like,
)
from obskit.parameters import edge_degree, pathwidth, treewidth
from obskit.verify import FIXTURE_BOUNDS
from obskit.relations import Mode, Relation, _single_steps, is_antichain

from conftest import copies

K3, K4 = complete(3), complete(4)


def keys(graphs):
    return sorted(canonical_form(g) for g in graphs)


# -- predicates ---------------------------------------------------------------


def test_forest_predicate():
    assert is_forest(MultiGraph(0))
    assert is_forest(path(5))
    assert not is_forest(K3)
    assert not is_forest(theta(2))  # a parallel pair is a cycle


def test_outerplanar_predicate():
    assert is_outerplanar(path(4))
    assert is_outerplanar(K3)
    assert not is_outerplanar(K4)
    assert not is_outerplanar(complete_bipartite(2, 3))


def test_apex_forest_predicate():
    assert is_apex_forest(K3)
    assert is_apex_forest(grid(2))
    assert not is_apex_forest(K4)
    assert not is_apex_forest(copies(2, K3))


def _nx_multigraph(g, gone=()):
    G = nx.MultiGraph()
    G.add_nodes_from(v for v in range(g.n) if v not in gone)
    G.add_edges_from((u, v) for u, v, m in g.edges for _ in range(m)
                     if u not in gone and v not in gone)
    return G


def test_forest_tests_match_networkx_exhaustively():
    # an nx.MultiGraph keeps parallel pairs, which networkx counts as cycles
    def nx_forest(G):
        return len(G) == 0 or nx.is_forest(G)

    graphs = [*enumerate_graphs(7, 1), *enumerate_graphs(5, 2)]
    assert len(graphs) == 2126
    for g in graphs:
        forest = nx_forest(_nx_multigraph(g))
        assert is_forest(g) == forest
        assert is_apex_forest(g) == (forest or any(
            nx_forest(_nx_multigraph(g, {v})) for v in range(g.n)))
        tree = g.n > 0 and nx.is_tree(_nx_multigraph(g))
        assert _is_tree(g) == tree
        assert (tree_code(g) is not None) == tree
        # outerplanar exactly when an added apex vertex keeps it planar
        apex = nx.Graph(_nx_multigraph(g))
        apex.add_edges_from(("apex", v) for v in range(g.n))
        assert is_outerplanar(g) == nx.check_planarity(apex)[0]


def test_degree_restricted_predicates():
    assert is_subcubic_forest(star(3))
    assert not is_subcubic_forest(star(4))
    assert is_star_or_edgeless(star(5))
    assert is_star_or_edgeless(MultiGraph(3))
    # one star plus stray edges is inside the lift-closure
    assert is_star_or_edgeless(MultiGraph.build(5, [(0, 1), (0, 2), (3, 4)]))
    assert not is_star_or_edgeless(path(4))
    assert is_theta_like(theta(9))
    assert is_theta_like(MultiGraph(2))
    assert not is_theta_like(path(3))


# -- the scan -----------------------------------------------------------------


def test_forest_obstructions_small_bound():
    rep = compute_obstructions(Relation.MINOR, is_forest, 4)
    assert keys(rep.obstructions) == keys([K3])
    assert rep.n_max == 4 and rep.mult_max == 1
    assert "complete up to" in rep.note
    assert list(rep) == list(rep.obstructions)


def test_theta_like_obstructions():
    rep = compute_obstructions(Relation.IMMERSION, is_theta_like, 4, 2)
    assert keys(rep.obstructions) == keys([MultiGraph(3)])


def test_non_closed_predicate_detected():
    def literal_star_or_edgeless(g):  # not closed: stars lose leaves badly
        if not g.edges:
            return True
        degs = sorted(g.edge_degrees)
        return g.n >= 2 and degs[:-1] == [1] * (g.n - 1)

    with pytest.raises(NonClosedPredicateError) as err:
        compute_obstructions(Relation.IMMERSION, literal_star_or_edgeless, 4, 1)
    assert err.value.member.n <= 4

    # no member on three or more vertices is reached from the two-vertex
    # layer, so only the sampled labelled graphs can expose this one
    with pytest.raises(NonClosedPredicateError) as err:
        compute_obstructions(Relation.MINOR, lambda g: g.n != 2, 4)
    assert (err.value.member.n, err.value.reduct.n) == (3, 2)


def _subcubic(g):
    return max(g.degrees, default=0) <= 3


@pytest.mark.parametrize("n_max,mult_max", [(6, 1), (5, 2)])
def test_subcubic_topological_minor_obstruction_is_k14(n_max, mult_max):
    # contracting an arbitrary edge is not a topological-minor step: it would
    # turn a subcubic graph into a degree-4 one and fail the closure check
    rep = compute_obstructions(Relation.TOPOLOGICAL_MINOR, _subcubic,
                               n_max, mult_max)
    assert keys(rep) == keys([star(4)])


def _full_universe_obstructions(relation, predicate, n_max, mult_max):
    """The reference scan: every graph of the bounded universe is split by
    the predicate, members or not."""
    mode = Mode.SIMPLE if mult_max == 1 else Mode.MULTI
    return tuple(g for g in enumerate_graphs(n_max, mult_max)
                 if not predicate(g)
                 and all(predicate(r) for r in _single_steps(g, relation, mode)))


def _treewidth_at_most_1(g):
    return treewidth(g)[0] <= 1


def _pathwidth_at_most_1(g):
    return pathwidth(g)[0] <= 1


def _edge_degree_at_most_2(g):
    return edge_degree(g) <= 2


def _nothing(g):
    return False


@pytest.mark.parametrize("relation,predicate,n_max,mult_max", [
    *[(rel, pred, 6, 1) for rel, pred in BUILTIN_CLASSES.values()
      if rel is Relation.MINOR],
    *[(rel, pred, 5, 2) for rel, pred in BUILTIN_CLASSES.values()
      if rel is Relation.IMMERSION],
    (Relation.TOPOLOGICAL_MINOR, _subcubic, 6, 1),
    (Relation.TOPOLOGICAL_MINOR, _subcubic, 5, 2),
    (Relation.MINOR, _treewidth_at_most_1, 6, 1),
    (Relation.MINOR, _nothing, 4, 1),
    (Relation.MINOR, _pathwidth_at_most_1, 6, 1),
    (Relation.IMMERSION, _edge_degree_at_most_2, 5, 2),
])
def test_grown_scan_matches_the_full_universe(relation, predicate, n_max,
                                              mult_max):
    # same graphs, same labels, same order
    rep = compute_obstructions(relation, predicate, n_max, mult_max)
    assert rep.obstructions == _full_universe_obstructions(
        relation, predicate, n_max, mult_max)


@pytest.mark.parametrize("name", sorted(BUILTIN_CLASSES))
def test_scan_searches_only_members_and_step_minimal_children(name,
                                                              monkeypatch):
    relation, member = BUILTIN_CLASSES[name]
    n_max, mult_max = FIXTURE_BOUNDS[name]
    mode = Mode.SIMPLE if mult_max == 1 else Mode.MULTI

    def step_minimal(g):
        return all(member(r) for r in _single_steps(g, relation, mode))

    # the children of each member layer, in the order the scan searches
    # them: the members, then the step-minimal violators
    kept, dropped = [], 0
    for n, (inside, _) in enumerate(_grow_closed(member, n_max, mult_max)):
        if n < n_max:
            children = list(_children(inside, n + 1, mult_max))
            layer = ([c for c in children if member(c)]
                     + [c for c in children
                        if not member(c) and step_minimal(c)])
            kept += layer
            dropped += len(children) - len(layer)
    searched = []
    search = multigraph._canonical_search
    monkeypatch.setattr(multigraph, "_canonical_search",
                        lambda g: searched.append(g) or search(g))
    compute_obstructions(relation, member, n_max, mult_max)
    assert searched[:len(kept)] == kept
    # the rest come from the closure check and the antichain test
    assert all(member(g) or step_minimal(g) for g in searched)
    assert dropped > 0


def test_nothing_is_obstructed_by_the_empty_graph():
    rep = compute_obstructions(Relation.MINOR, _nothing, 4)
    assert rep.obstructions == (MultiGraph(0),)


def test_scan_grows_layers_without_the_universe_memo():
    misses = _layer.cache_info().misses
    compute_obstructions(Relation.IMMERSION, is_star_or_edgeless, 6, 2)
    assert _layer.cache_info().misses == misses


def test_scan_keeps_the_enumeration_size_caps():
    with pytest.raises(BudgetExceededError) as err:
        compute_obstructions(Relation.MINOR, is_forest, 9)
    assert str(err.value) == ("enumeration to 9 vertices at mult_max=1 "
                              "exceeds the budget")
    assert err.value.detail == {"n_max": 9, "mult_max": 1, "allowed": 8}


def test_obstructions_are_an_antichain_by_construction():
    rep = compute_obstructions(Relation.MINOR, is_apex_forest, 5)
    assert is_antichain(Relation.MINOR, list(rep))


def test_bounded_universe_hides_large_obstructions():
    # at n<=3 the outerplanar scan cannot see either obstruction
    rep = compute_obstructions(Relation.MINOR, is_outerplanar, 3)
    assert rep.obstructions == ()


# -- fixtures -----------------------------------------------------------------


def test_fixture_files_parse_and_stay_antichains():
    for name, expect in [("obstructions_forests.txt", 1),
                         ("obstructions_outerplanar.txt", 2),
                         ("obstructions_apex_forest.txt", 3),
                         ("obstructions_subcubic_forest.txt", 2),
                         ("obstructions_star_or_edgeless.txt", 3),
                         ("obstructions_theta_like.txt", 1)]:
        graphs = fixture_graphs(name)
        assert len(graphs) == expect, name
        rel = BUILTIN_CLASSES[name[len("obstructions_"):-4]][0]
        assert is_antichain(rel, graphs), name


def test_apex_forest_third_fixture_contents():
    third = fixture_graphs("apex_forest_third_obstruction.txt")
    assert len(third) == 1
    g = third[0]
    assert (g.n, g.total_units) == (6, 9)
    assert sorted(g.edge_degrees) == [2, 2, 2, 4, 4, 4]
    assert not is_apex_forest(g)
    full = fixture_graphs("obstructions_apex_forest.txt")
    assert canonical_form(g) in keys(full)


def test_subcubic_forest_obstructions_at_stated_bound():
    rep = compute_obstructions(Relation.IMMERSION, is_subcubic_forest, 5, 2)
    assert keys(rep.obstructions) == keys([theta(2), star(4)])


def test_star_or_edgeless_fixture_is_the_honest_set():
    # computed at n<=6, mult<=2: a theta pair, the 4-path, and two stacked
    # 3-paths; the 4-path is minimal because lifting its middle makes a
    # member, and nothing smaller dominates it
    graphs = fixture_graphs("obstructions_star_or_edgeless.txt")
    sizes = sorted((g.n, g.total_units) for g in graphs)
    assert sizes == [(2, 2), (4, 3), (6, 4)]
    rep = compute_obstructions(Relation.IMMERSION, is_star_or_edgeless, 6, 2)
    assert keys(rep.obstructions) == keys(graphs)


def test_unknown_fixture_name():
    with pytest.raises(FileNotFoundError):
        fixture_graphs("no_such_fixture.txt")
