"""The acceptance gate: one test per shipped claim, run in order.

Each test restates a documented guarantee of the package at its stated
universe bound and time budget.  Everything here recomputes from scratch;
fixtures are only used as the expected side of exact comparisons.
"""
import random
import time

import pytest

from obskit.multigraph import (
    MultiGraph,
    canonical_form,
    contract_edge,
    delete_edge,
    delete_vertices,
    enumerate_graphs,
    lift_pair,
)
from obskit.families import (
    complete,
    complete_bipartite,
    grid,
    omnivore_chain,
    path,
    star,
    theta,
)
from obskit.obstructions import (
    compute_obstructions,
    fixture_graphs,
    is_apex_forest,
    is_forest,
    is_outerplanar,
    is_star_or_edgeless,
    is_subcubic_forest,
    is_theta_like,
)
from obskit.parameters import (
    CUTWIDTH,
    EDGE_DEGREE,
    PATHWIDTH,
    TREEWIDTH,
    BI_PATHWIDTH,
    treewidth,
    treewidth_by_elimination,
)
from obskit.poset import (
    chain_partition,
    poset_from_relations,
    poset_width,
    rado_order,
    rado_star_antichain_witness,
    rado_truncation,
)
from obskit.relations import (
    Mode,
    Relation,
    contains,
    immersion_reachable_set,
)
from obskit.universal import (
    CERTIFICATES,
    COLLECTIONS,
    CORPORA,
    GRID_COLLECTION,
    approximate,
    gap_report,
    mixed_corpus,
    p_of_collection,
)

from conftest import copies

K3, K4 = complete(3), complete(4)
K23 = complete_bipartite(2, 3)


def keyset(graphs):
    return {canonical_form(g) for g in graphs}


def test_criterion_01_forest_obstructions():
    t0 = time.monotonic()
    rep = compute_obstructions(Relation.MINOR, is_forest, 6)
    assert keyset(rep) == keyset([K3])
    assert time.monotonic() - t0 < 60


def test_criterion_02_outerplanar_obstructions():
    t0 = time.monotonic()
    rep = compute_obstructions(Relation.MINOR, is_outerplanar, 6)
    assert keyset(rep) == keyset([K4, K23])
    assert time.monotonic() - t0 < 300


def test_criterion_03_apex_forest_obstructions():
    t0 = time.monotonic()
    rep = compute_obstructions(Relation.MINOR, is_apex_forest, 7)
    found = keyset(rep)
    assert len(found) == 3
    assert canonical_form(K4) in found
    assert canonical_form(copies(2, K3)) in found
    third = found - keyset([K4, copies(2, K3)])
    persisted = fixture_graphs("apex_forest_third_obstruction.txt")
    assert third == keyset(persisted)
    assert time.monotonic() - t0 < 1800


@pytest.mark.xfail(
    strict=True,
    reason="the stated pair for the star-like class is unreachable: its "
           "second graph needs six vertices, above the stated five-vertex "
           "bound, and the immersion-closure of the class adds the 4-path "
           "as a third minimal violator (see the class predicate's "
           "docstring); the honest computed sets are pinned in "
           "test_obstructions.py")
def test_criterion_04_immersion_obstructions():
    bound = dict(n_max=5, mult_max=2)
    rep = compute_obstructions(Relation.IMMERSION, is_subcubic_forest, **bound)
    assert keyset(rep) == keyset([theta(2), star(4)])
    rep = compute_obstructions(Relation.IMMERSION, is_theta_like, **bound)
    assert keyset(rep) == keyset([MultiGraph(3)])
    rep = compute_obstructions(Relation.IMMERSION, is_star_or_edgeless, **bound)
    assert keyset(rep) == keyset([theta(2), copies(2, path(3))])


def test_criterion_05_grid_value_tracks_treewidth():
    t0 = time.monotonic()
    for k in (2, 3, 4):
        assert treewidth(grid(k))[0] == k
    for g in enumerate_graphs(7, 1):
        assert p_of_collection(GRID_COLLECTION, g) <= treewidth(g)[0] + 1
    assert time.monotonic() - t0 < 900


def test_criterion_06_both_value_forms_agree_everywhere():
    # every evaluation recomputes the value via the per-family maximum and
    # the joint minimum and raises on any disagreement, so one clean sweep
    # of the corpus is the 100% claim
    corpus = mixed_corpus(500)
    assert len(corpus) == 500
    for coll in COLLECTIONS.values():
        for g in corpus:
            assert p_of_collection(coll, g) >= 1


def test_criterion_07_relation_lattice_and_lifting_equivalence():
    t0 = time.monotonic()
    universe = list(enumerate_graphs(4, 2))
    reach = {i: immersion_reachable_set(g) for i, g in enumerate(universe)}
    cans = [canonical_form(g) for g in universe]
    for hi, h in enumerate(universe):
        for gi, g in enumerate(universe):
            sub = contains(Relation.SUBGRAPH, h, g)
            tm = contains(Relation.TOPOLOGICAL_MINOR, h, g, mode=Mode.MULTI)
            mnr = contains(Relation.MINOR, h, g, mode=Mode.MULTI)
            imm = contains(Relation.IMMERSION, h, g)
            if sub:
                assert tm, (h, g)
            if tm:
                assert mnr, (h, g)
                assert imm, (h, g)
            lifted = cans[hi] in reach[gi]
            assert imm == lifted, (h, g)
    assert time.monotonic() - t0 < 600


def _random_minor_step(g, rng):
    moves = [("v", v) for v in range(g.n)] + \
            [("e", (u, v)) for u, v, _ in g.edges] + \
            [("c", (u, v)) for u, v, _ in g.edges]
    kind, arg = moves[rng.randrange(len(moves))]
    if kind == "v":
        return delete_vertices(g, (arg,))
    if kind == "e":
        return delete_edge(g, *arg)
    return contract_edge(g, *arg, simple=True)


def _random_immersion_step(g, rng):
    moves = [("v", v) for v in range(g.n)] + \
            [("e", (u, v)) for u, v, _ in g.edges]
    for y in range(g.n):
        nbrs = sorted(g.adj[y])
        for i, x in enumerate(nbrs):
            for z in nbrs[i + 1:]:
                moves.append(("l", (x, y, z)))
    kind, arg = moves[rng.randrange(len(moves))]
    if kind == "v":
        return delete_vertices(g, (arg,))
    if kind == "e":
        return delete_edge(g, *arg)
    return lift_pair(g, *arg)


def test_criterion_08_solver_cross_validation_and_monotonicity():
    for g in enumerate_graphs(8, 1):
        assert treewidth(g)[0] == treewidth_by_elimination(g), g

    rng = random.Random(0)
    minor_pool = [g for g in enumerate_graphs(6, 1) if g.n]
    multi_pool = [g for g in enumerate_graphs(5, 2) if g.n]
    for kind in (TREEWIDTH, PATHWIDTH, BI_PATHWIDTH):
        for _ in range(500):
            g = minor_pool[rng.randrange(len(minor_pool))]
            assert kind.solve(_random_minor_step(g, rng)) <= \
                kind.solve(g), (kind.tag, g)
    for kind in (CUTWIDTH, EDGE_DEGREE):
        for _ in range(500):
            g = multi_pool[rng.randrange(len(multi_pool))]
            assert kind.solve(_random_immersion_step(g, rng)) <= \
                kind.solve(g), (kind.tag, g)


def test_criterion_09_omnivore_chain_covers_small_forests():
    chain = omnivore_chain(Relation.MINOR, is_forest, 5)
    assert [canonical_form(g) for g in chain] == \
        [canonical_form(g) for g in fixture_graphs("omnivore_forests.txt")]
    for g in chain:
        assert is_forest(g)
    for a, b in zip(chain, chain[1:]):
        assert contains(Relation.MINOR, a, b)
    for k, member in enumerate(chain, start=1):
        for f in enumerate_graphs(k, 1, predicate=is_forest):
            assert contains(Relation.MINOR, f, member), (k, f)


def test_criterion_10_pair_order_truncations_and_witness():
    for n in range(2, 9):
        p = rado_truncation(n)  # construction re-checks the poset axioms
        elems = p.labels
        for a in elems:
            for b in elems:
                assert p.leq(a, b) == rado_order(a, b)
    for m in range(2, 12):
        for n in range(m + 1, 13):
            assert rado_star_antichain_witness(m, n), (m, n)


def test_criterion_11_chain_partitions_match_width():
    rng = random.Random(11)
    for trial in range(200):
        n = rng.randint(1, 12)
        density = rng.choice((0.1, 0.3, 0.5, 0.8))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density]
        p = poset_from_relations(range(n), pairs)
        assert len(chain_partition(p)) == poset_width(p), trial


def test_criterion_12_gap_reports_and_verdict_soundness():
    cert = CERTIFICATES["edge_degree"]
    rep = gap_report(EDGE_DEGREE, cert.collection, CORPORA[cert.corpus]())
    for row in rep.rows:
        assert row.collection - row.parameter == 1

    for name, cert in CERTIFICATES.items():
        for g in CORPORA[cert.corpus]():
            exact = cert.kind.solve(g)
            for k in range(0, 6):
                verdict = approximate(cert.collection, cert.gap, g, k)
                if verdict.kind == "ABOVE" and "above" in cert.sides:
                    assert exact > verdict.bound, (name, g, k)
                if verdict.kind == "AT_MOST" and "at_most" in cert.sides:
                    assert exact <= verdict.bound, (name, g, k)
