import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from obskit.multigraph import (BudgetExceededError, MultiGraph, canonical_form,
                               enumerate_graphs, format_graph_text,
                               _component_mask)
from obskit import are_isomorphic, relations
from obskit.universal import DEGREE_COLLECTION, p_of_collection
from obskit.families import (
    complete,
    complete_bipartite,
    fan,
    grid,
    path,
    star,
    ternary_tree_apex,
    ternary_tree_apex_dual,
    theta,
)
from obskit.relations import (
    Mode,
    Relation,
    _single_steps,
    contains,
    default_mode,
    immersion_by_liftings,
    immersion_reachable_set,
    is_antichain,
    parse_relation,
    verify_minor_model,
    verify_subgraph_map,
)

from conftest import caterpillar, copies, multigraphs, shuffled

K3, K4, K5 = complete(3), complete(4), complete(5)
K23 = complete_bipartite(2, 3)

# K_{1,4} spread over a two-center tree: a minor (merge the centers) but not
# a topological minor (no single vertex has four branches)
DOUBLE_STAR = MultiGraph.build(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])
K14 = star(4)


def test_parse_relation_accepts_aliases():
    assert parse_relation("minor") is Relation.MINOR
    assert parse_relation("tm") is Relation.TOPOLOGICAL_MINOR
    assert parse_relation("immersion") is Relation.IMMERSION
    assert parse_relation("sub") is Relation.SUBGRAPH
    with pytest.raises(ValueError):
        parse_relation("homomorphism")


def test_default_modes():
    assert default_mode(Relation.MINOR) is Mode.SIMPLE
    assert default_mode(Relation.TOPOLOGICAL_MINOR) is Mode.SIMPLE
    assert default_mode(Relation.SUBGRAPH) is Mode.MULTI
    assert default_mode(Relation.IMMERSION) is Mode.MULTI


# -- pinned containment facts -------------------------------------------------


def test_minor_examples():
    assert contains(Relation.MINOR, K3, grid(2))
    assert contains(Relation.MINOR, K4, grid(3))
    assert not contains(Relation.MINOR, K5, grid(3))
    assert contains(Relation.MINOR, K23, grid(3))
    assert not contains(Relation.MINOR, K3, path(10))


def test_minor_versus_topological_minor_separation():
    assert contains(Relation.MINOR, K14, DOUBLE_STAR)
    assert not contains(Relation.TOPOLOGICAL_MINOR, K14, DOUBLE_STAR)
    # degree <= 3 patterns cannot see the difference
    assert contains(Relation.MINOR, star(3), DOUBLE_STAR)
    assert contains(Relation.TOPOLOGICAL_MINOR, star(3), DOUBLE_STAR)


def test_immersion_examples():
    assert contains(Relation.IMMERSION, theta(3), K4)
    assert not contains(Relation.IMMERSION, theta(4), K4)
    assert contains(Relation.IMMERSION, theta(2), copies(2, K3))
    assert not contains(Relation.SUBGRAPH, theta(2), K4)


def test_subgraph_respects_multiplicity():
    single = MultiGraph.build(2, [(0, 1)])
    double = MultiGraph.build(2, [(0, 1, 2)])
    assert contains(Relation.SUBGRAPH, single, double)
    assert not contains(Relation.SUBGRAPH, double, single)
    # under minors the default simple mode erases the parallel pair
    assert contains(Relation.MINOR, double, single, mode=Mode.SIMPLE)
    assert not contains(Relation.MINOR, double, single, mode=Mode.MULTI)


def test_empty_and_tiny_patterns():
    assert contains(Relation.MINOR, MultiGraph(0), K3)
    assert contains(Relation.SUBGRAPH, MultiGraph(1), K3)
    assert not contains(Relation.MINOR, MultiGraph(1), MultiGraph(0))


def test_non_positive_budgets_are_rejected():
    # even pairs the size comparison decides at once
    for budget in (0, -5, float("nan")):
        with pytest.raises(ValueError):
            contains(Relation.MINOR, K4, K3, budget_ms=budget)
        with pytest.raises(ValueError):
            contains(Relation.SUBGRAPH, K3, K4, budget_ms=budget)
    assert contains(Relation.MINOR, K3, K4, budget_ms=1000)


def test_budgets_raise_on_time_with_the_time_spent():
    # a negative minor query that runs for seconds without a budget
    start = time.monotonic()
    with pytest.raises(BudgetExceededError) as info:
        contains(Relation.MINOR, K23, ternary_tree_apex_dual(2), budget_ms=500)
    assert time.monotonic() - start < 0.55
    assert info.value.detail["budget_ms"] == 500
    assert info.value.detail["elapsed_ms"] >= 500
    # K_{2,3} is subcubic, so only a routing try cut off at its ceiling
    # leaves the query to the walk: the steps count both on one deadline
    assert info.value.detail["steps"] > relations._ROUTING_STEPS


def test_size_caps_guard_the_search():
    big = path(12)
    with pytest.raises(BudgetExceededError):
        contains(Relation.SUBGRAPH, big, grid(4))
    # explicit caps lift the guard
    assert contains(Relation.SUBGRAPH, path(9), grid(3), max_pattern=9)


def test_degree_bounded_hosts_shortcut_stays_correct():
    # hosts that are paths or cycles reject every branching pattern at once,
    # well past the generic size caps
    cyc = MultiGraph.build(20, [(i, (i + 1) % 20) for i in range(20)])
    assert not contains(Relation.MINOR, star(3), cyc)
    assert not contains(Relation.TOPOLOGICAL_MINOR, K14, path(30))
    assert not contains(Relation.IMMERSION, star(3), path(25))
    assert not contains(Relation.MINOR, K3, path(100))


def test_routed_minor_path_matches_the_walk(monkeypatch):
    # hosts on 8 vertices with minimum degree 2 keep their size under
    # `_reduce_host`, so the routing try runs on them
    patterns = list(enumerate_graphs(5, 1))
    hosts = [g for g in enumerate_graphs(8, 1) if g.n == 8
             and min(g.degrees) >= 2 and len(g.edges) <= 14][::300]
    routing = relations._topological
    tries = []

    def counted(g, h, dl):
        tries.append(h)
        return routing(g, h, dl)

    monkeypatch.setattr(relations, "_topological", counted)
    routed = [[contains(Relation.MINOR, h, g) for h in patterns] for g in hosts]
    assert len(hosts) == 10 and len(tries) > 50
    assert any(max(h.degrees) > 3 for h in tries)
    monkeypatch.setattr(relations, "_ROUTING_MIN_HOST", 10 ** 9)
    walked = [[contains(Relation.MINOR, h, g) for h in patterns] for g in hosts]
    assert routed == walked


def test_routing_alone_settles_a_positive_and_a_subcubic_negative(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(relations, "_walk", no_walk)
    # fan6 has a degree-5 hub, so only a positive routing answers it
    assert contains(Relation.MINOR, fan(6), ternary_tree_apex(2))
    # two triangles joined by an edge, against a sparse 8-vertex host
    two_triangles = MultiGraph.build(
        6, [(0, 3), (0, 5), (1, 2), (1, 4), (2, 4), (3, 5), (4, 5)])
    host = MultiGraph.build(8, [(0, 5), (0, 6), (1, 3), (1, 6), (2, 4), (2, 5),
                                (2, 6), (3, 5), (4, 7), (5, 7)])
    assert not contains(Relation.MINOR, two_triangles, host)


def test_topological_minor_tries_the_subgraph_embedding_first(monkeypatch):
    def no_routing(*args, **kwargs):
        raise AssertionError("the routing ran")

    monkeypatch.setattr(relations, "_topological", no_routing)
    assert contains(Relation.TOPOLOGICAL_MINOR, path(6), ternary_tree_apex(2))
    assert contains(Relation.TOPOLOGICAL_MINOR, theta(500), theta(600),
                    mode=Mode.MULTI)


def _detour(units):
    """A two-vertex pattern with `units` parallel edges, and a host one unit
    short between the same pair plus a path of length 2 around it."""
    return (MultiGraph.build(2, [(0, 1, units)]),
            MultiGraph.build(3, [(0, 1, units - 1), (0, 2), (1, 2)]))


@pytest.mark.parametrize("rel", [Relation.TOPOLOGICAL_MINOR,
                                 Relation.IMMERSION])
def test_routing_that_runs_out_of_stack_is_refused(rel):
    assert contains(rel, *_detour(200), mode=Mode.MULTI)
    h, g = _detour(2000)
    with pytest.raises(BudgetExceededError) as err:
        contains(rel, h, g, mode=Mode.MULTI)
    assert str(err.value) == ("routing ran out of stack at 2000 pattern "
                              "edge units")
    assert err.value.detail == {"pattern_units": 2000, "host_vertices": 3,
                                "host_units": 2001}
    # the stack is unwound: the next query routes as before
    assert contains(rel, *_detour(200), mode=Mode.MULTI)
    # a subgraph embedding needs no routing, whatever the units
    assert contains(rel, theta(2000), theta(2001), mode=Mode.MULTI)


def test_degree_infeasible_routings_answer_at_high_multiplicity():
    # the routing's edge-degree test refuses theta(301) at once: 301 units
    # cannot leave a vertex of edge degree 300, whatever the stack
    host = MultiGraph.build(3, [(0, 1, 300), (1, 2, 1)])
    for rel in (Relation.TOPOLOGICAL_MINOR, Relation.IMMERSION):
        assert not contains(rel, theta(301), host, mode=Mode.MULTI)
    assert p_of_collection(DEGREE_COLLECTION, host) == 301


def test_tree_minor_fast_path_matches_search():
    # trees bypass the size caps entirely
    spider = MultiGraph.build(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert contains(Relation.MINOR, star(3), spider)
    assert not contains(Relation.MINOR, star(4), spider)
    assert contains(Relation.MINOR, path(40), path(60))
    assert contains(Relation.MINOR, spider, MultiGraph.build(
        25, [(i, i + 1) for i in range(20)] + [(5, 21), (10, 22), (15, 23), (21, 24)]))


def test_tree_minor_on_deep_trees():
    # the recursive packing ran out of stack along a 3,000-vertex host
    assert contains(Relation.MINOR, path(5), path(3000))
    assert not contains(Relation.MINOR, star(3), path(3000))
    host = caterpillar(1500, range(1, 1499, 3))
    assert contains(Relation.MINOR, caterpillar(6, range(1, 5)), host)
    # a claw with legs of length two is a minor of no caterpillar
    spider = MultiGraph.build(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert not contains(Relation.MINOR, spider, host)
    assert contains(Relation.SUBGRAPH, shuffled(path(3000), 4), path(3000))


@pytest.mark.parametrize("mode", list(Mode))
def test_equal_size_answers_match_canonical_forms(mode):
    # within the caps a placement search settles equal-size queries; in
    # simple mode one multigraph stands for each class of simplifications
    classes = {}
    for g in enumerate_graphs(5, 2):
        seen = g.simplify() if mode is Mode.SIMPLE else g
        classes.setdefault(canonical_form(seen), (g, seen))
    checked = 0
    for h, hs in classes.values():
        for g, gs in classes.values():
            if (hs.n, hs.total_units) != (gs.n, gs.total_units):
                continue
            want = canonical_form(hs) == canonical_form(gs)
            assert contains(Relation.SUBGRAPH, h, shuffled(g, checked),
                            mode=mode) == want, (h, g)
            assert are_isomorphic(hs, shuffled(gs, checked)) == want, (h, g)
            checked += 1
    assert checked == {Mode.MULTI: 60789, Mode.SIMPLE: 181}[mode]


def random_regular(n, d, rng):
    """Edges of a simple d-regular graph on n vertices: the pairing model,
    drawn again until it has no loop and no repeated pair."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) == n * d // 2 and all(u != v for u, v in pairs):
            return sorted(pairs)


def test_equal_size_step_runs_under_the_budget():
    # seed 5: canonical forms, which no budget bounds, took 6.5 s (not
    # isomorphic) and 8.7 s (isomorphic) on these pairs on a 2-CPU Xeon,
    # within the raised caps and at the default ones
    rng = random.Random(5)
    edges = random_regular(16, 5, rng)
    perm = list(range(16))
    rng.shuffle(perm)
    g = MultiGraph.build(16, edges)
    same = MultiGraph.build(16, [(perm[u], perm[v]) for u, v in edges])
    other = MultiGraph.build(16, random_regular(16, 5, rng))
    for (h, want), caps in itertools.product(
            ((same, True), (other, False)), ({"max_pattern": 16}, {})):
        start = time.perf_counter()
        try:
            got = contains(Relation.SUBGRAPH, h, g, budget_ms=200, **caps)
        except BudgetExceededError:
            got = None
        assert time.perf_counter() - start < 3
        assert got in (want, None)


def cycles(*lengths):
    """Disjoint cycles of the given lengths, labelled one after another."""
    edges, at = [], 0
    for k in lengths:
        edges += [(at + i, at + (i + 1) % k) for i in range(k)]
        at += k
    return MultiGraph.build(at, edges)


def test_equal_size_queries_above_the_caps_use_the_placement_search():
    # canonical forms took more than 30 s on each of the positive pairs
    rng = random.Random(40)
    cubic = [MultiGraph.build(40, random_regular(40, 3, rng)) for _ in range(2)]
    pairs = [(shuffled(g, 6), g, True) for g in (
        grid(6), ternary_tree_apex(3), ternary_tree_apex_dual(3), cycles(200))]
    pairs += [(cycles(200), cycles(100, 100), False), (*cubic, False)]
    for h, g, want in pairs:
        assert (h.n, h.total_units) == (g.n, g.total_units)
        start = time.perf_counter()
        assert contains(Relation.SUBGRAPH, h, g) is want
        assert contains(Relation.SUBGRAPH, g, h) is want
        assert are_isomorphic(h, g) is want
        assert time.perf_counter() - start < 3


def test_open_isomorphism_tests_above_255_vertices_are_refused():
    h, g = cycles(300), cycles(150, 150)
    for rel in Relation:
        with pytest.raises(BudgetExceededError,
                           match="isomorphism search limited to 255 vertices"):
            contains(rel, h, g)
    # settled by the cheap tests at any size
    assert are_isomorphic(shuffled(path(3000), 2), path(3000))
    lollipop = MultiGraph.build(3000, [*path(3000).edges, (0, 2)])
    assert not are_isomorphic(cycles(3000), lollipop)


@settings(max_examples=60)
@given(multigraphs(max_n=4, max_mult=2), multigraphs(max_n=4, max_mult=2))
def test_relation_lattice_on_small_pairs(h, g):
    sub = contains(Relation.SUBGRAPH, h, g)
    tm = contains(Relation.TOPOLOGICAL_MINOR, h, g, mode=Mode.MULTI)
    mnr = contains(Relation.MINOR, h, g, mode=Mode.MULTI)
    imm = contains(Relation.IMMERSION, h, g)
    if sub:
        assert tm
    if tm:
        assert mnr
        assert imm


@settings(max_examples=60)
@given(multigraphs(max_n=4, max_mult=2), multigraphs(max_n=4, max_mult=2))
def test_immersion_engines_agree(h, g):
    assert contains(Relation.IMMERSION, h, g) == immersion_by_liftings(g, h)


@settings(max_examples=40)
@given(multigraphs(max_n=4, max_mult=2), multigraphs(max_n=4, max_mult=2))
def test_containment_is_reflexive_and_respects_size(h, g):
    for rel in Relation:
        assert contains(rel, g, g, mode=Mode.MULTI)
        if h.n > g.n or h.total_units > g.total_units:
            assert not contains(rel, h, g, mode=Mode.MULTI)


STEP_UNIVERSE = list(enumerate_graphs(4, 1)) + list(enumerate_graphs(3, 2))


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("rel", [Relation.MINOR, Relation.TOPOLOGICAL_MINOR,
                                 Relation.IMMERSION])
def test_single_steps_are_sound_and_complete(rel, mode):
    # simple mode orders simple graphs, so its steps start from one
    universe = (STEP_UNIVERSE if mode is Mode.MULTI
                else {canonical_form(s): s for s in
                      (g.simplify() for g in STEP_UNIVERSE)}.values())
    for g in universe:
        steps = list(_single_steps(g, rel, mode))
        for r in steps:
            assert contains(rel, r, g, mode=mode)
        for h in universe:
            if contains(rel, h, g, mode=mode) and not contains(rel, g, h, mode=mode):
                assert any(contains(rel, h, r, mode=mode) for r in steps)


#: sha256 of the concatenated format_graph_text of every single step, in
#: step order, of every graph of (5,2) then (6,1), per relation and mode
SINGLE_STEPS_SHA256 = \
    "fa1467fd5d0c2b683b36aadccf157825a206e4713f740ed22aa21c61ee3f1dd9"


def test_single_steps_are_pinned_with_their_labels():
    digest = hashlib.sha256()
    graphs = [*enumerate_graphs(5, 2), *enumerate_graphs(6, 1)]
    assert len(graphs) == 1082
    for g in graphs:
        for rel in (Relation.MINOR, Relation.TOPOLOGICAL_MINOR, Relation.IMMERSION):
            for mode in (Mode.SIMPLE, Mode.MULTI):
                for r in _single_steps(g, rel, mode):
                    digest.update(format_graph_text(r).encode())
    assert digest.hexdigest() == SINGLE_STEPS_SHA256


def _step_closure(g, rel):
    seen = {canonical_form(g)}
    stack = [g]
    while stack:
        for r in _single_steps(stack.pop(), rel, Mode.MULTI):
            c = canonical_form(r)
            if c not in seen:
                seen.add(c)
                stack.append(r)
    return seen


def test_placement_engines_match_brute_force_exhaustively():
    universe = list(enumerate_graphs(4, 2))
    assert len(universe) == 81
    for g in universe:
        closures = {rel: _step_closure(g, rel) for rel in
                    (Relation.TOPOLOGICAL_MINOR, Relation.MINOR,
                     Relation.IMMERSION)}
        for h in universe:
            for rel, closure in closures.items():
                assert contains(rel, h, g, mode=Mode.MULTI) == \
                    (canonical_form(h) in closure), (rel, h, g)
            brute = any(verify_subgraph_map(h, g, m)
                        for m in itertools.permutations(range(g.n), h.n))
            assert contains(Relation.SUBGRAPH, h, g, mode=Mode.MULTI) == brute, (h, g)


def _connected(g):
    full = (1 << g.n) - 1
    return _component_mask(0, full, g.neighbor_masks) == full


def test_immersion_routing_matches_the_lifting_oracle():
    # 4-vertex pairs rarely make the room test fire; these hosts carry
    # patterns whose units compete for the edges at their images
    patterns = [h for h in enumerate_graphs(6, 1)
                if h.n >= 4 and min(h.degrees) >= 2 and _connected(h)]
    assert len(patterns) == 75
    for g in (fan(6), complete_bipartite(3, 4)):
        reach = immersion_reachable_set(g)
        for h in patterns:
            assert contains(Relation.IMMERSION, h, g) == \
                (canonical_form(h) in reach), (h, g)


def test_immersion_reachable_set_is_downward_closed_sample():
    reach = immersion_reachable_set(K4)
    assert canonical_form(K3) in reach
    assert canonical_form(theta(3)) in reach
    assert canonical_form(theta(4)) not in reach


# -- antichains -----------------------------------------------------------------


def test_is_antichain():
    assert is_antichain(Relation.MINOR, [K4, K23])
    assert not is_antichain(Relation.MINOR, [K3, K4])


# -- witness checkers ------------------------------------------------------------


def test_verify_subgraph_map():
    c4 = grid(2)
    assert verify_subgraph_map(path(3), c4, (0, 1, 3))
    assert not verify_subgraph_map(path(3), c4, (0, 3, 1))
    assert not verify_subgraph_map(path(3), c4, (0, 1, 1))
    assert not verify_subgraph_map(path(3), c4, (0, 1))


def test_verify_minor_model():
    c4 = grid(2)
    assert c4.multiplicity(1, 2) == 0
    assert verify_minor_model(K3, c4, [(0,), (1,), (3, 2)])
    # (1, 2) is not connected inside the host
    assert not verify_minor_model(K3, c4, [(0,), (1, 2), (3,)])
    assert not verify_minor_model(K3, c4, [(0,), (1,), (2,)])
    assert not verify_minor_model(K3, c4, [(0,), (1,), ()])
    assert verify_minor_model(path(3), c4, [(0,), (1,), (3,)])
    assert verify_minor_model(c4, grid(3), [(0,), (1, 2), (3,), (4, 5, 6, 7, 8)])
    theta2 = theta(2)
    host = MultiGraph.build(3, [(0, 1), (1, 2), (0, 2)])
    assert verify_minor_model(theta2, host, [(0,), (1, 2)], mode=Mode.MULTI)
    assert not verify_minor_model(theta2, MultiGraph.build(2, [(0, 1)]),
                                  [(0,), (1,)], mode=Mode.MULTI)
