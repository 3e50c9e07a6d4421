import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

from obskit import are_isomorphic, multigraph
from obskit.multigraph import (
    K0,
    MAX_MULTIPLICITY,
    BudgetExceededError,
    GraphFormatError,
    MultiGraph,
    canonical_form,
    contract_edge,
    delete_edge,
    delete_vertices,
    enum_key,
    enumerate_graphs,
    format_graph_set,
    format_graph_text,
    from_graph6,
    lift_pair,
    parse_graph_set,
    parse_graph_text,
    to_graph6,
    tree_code,
    _block_sets,
    _canonical_search,
    _extend_layer,
    _from_canonical,
    _grow_closed,
    _layer,
    _mult_matrix,
    _stable_colors,
)
from obskit.families import (complete_bipartite, grid, ternary_tree_apex,
                             ternary_tree_apex_dual)
from obskit.obstructions import BUILTIN_CLASSES, is_forest
from obskit.universal import tree_corpus
from obskit.verify import FIXTURE_BOUNDS

from conftest import (caterpillar, copies, disjoint_union, multigraphs,
                      relabel_canonically, shuffled, subdivide_edge)


def P(n):
    return MultiGraph.build(n, [(i, i + 1) for i in range(n - 1)])


def C(n):
    return MultiGraph.build(n, [(i, (i + 1) % n) for i in range(n)])


def K(n):
    return MultiGraph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# -- construction ------------------------------------------------------------


def test_build_normalizes_pairs_and_accumulates():
    g = MultiGraph.build(3, [(1, 0), (0, 1), (1, 2, 2)])
    assert g.edges == ((0, 1, 2), (1, 2, 2))
    assert g.total_units == 4
    assert g.multiplicity(2, 1) == 2
    assert g.multiplicity(0, 2) == 0


@given(multigraphs(max_n=7, max_mult=3))
def test_adjacency_keys_ascend(g):
    for v in range(g.n):
        assert list(g.adj[v]) == sorted(g.adj[v])


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        MultiGraph(2, ((0, 0, 1),))
    with pytest.raises(ValueError):
        MultiGraph(2, ((0, 1, 0),))
    with pytest.raises(ValueError):
        MultiGraph(2, ((0, 2, 1),))
    with pytest.raises(ValueError, match="must be sorted"):
        MultiGraph(3, ((1, 2, 1), (0, 1, 1)))
    with pytest.raises(ValueError, match="duplicate edge pair"):
        MultiGraph(3, ((0, 1, 1), (0, 1, 2)))
    with pytest.raises(ValueError):
        MultiGraph.build(3, [(0, 0)])
    with pytest.raises(ValueError):
        MultiGraph(-1)


def test_empty_graph_is_valid():
    assert K0.n == 0
    assert K0.edges == ()
    assert K0.total_units == 0
    assert canonical_form(K0) == canonical_form(MultiGraph(0))


def test_degree_views():
    g = MultiGraph.build(3, [(0, 1, 3), (1, 2)])
    assert g.edge_degrees == (3, 4, 1)
    assert g.degrees == (1, 2, 1)
    assert g.adj[1] == {0: 3, 2: 1}
    assert not g.is_simple()
    assert g.simplify().edges == ((0, 1, 1), (1, 2, 1))


# -- elementary operations ---------------------------------------------------


def test_delete_vertices_relabels_downward():
    g = P(4)
    h = delete_vertices(g, (1,))
    assert h.n == 3
    assert h.edges == ((1, 2, 1),)
    assert delete_vertices(g, (3, 0)).edges == ((0, 1, 1),)
    assert delete_vertices(g, ()) == g
    for bad in ((4,), (0, -1)):
        with pytest.raises(ValueError, match="out of range"):
            delete_vertices(g, bad)


def test_delete_vertices_equals_single_deletions_in_descending_order():
    for g in enumerate_graphs(5, 2):
        for size in range(g.n + 1):
            for gone in itertools.combinations(range(g.n), size):
                h = g
                for v in reversed(gone):
                    h = delete_vertices(h, (v,))
                assert delete_vertices(g, gone) == h, (g, gone)


def test_delete_edge_unit_semantics():
    g = MultiGraph.build(2, [(0, 1, 3)])
    assert delete_edge(g, 0, 1).edges == ((0, 1, 2),)
    assert delete_edge(delete_edge(delete_edge(g, 1, 0), 0, 1), 1, 0).edges == ()
    with pytest.raises(ValueError):
        delete_edge(P(3), 0, 2)


def test_contract_edge_modes():
    # contracting one side of C4 closes a parallel pair
    g = C(4)
    assert contract_edge(g, 0, 1, simple=False).edges == ((0, 1, 1), (0, 2, 1), (1, 2, 1))
    assert contract_edge(C(3), 0, 1, simple=True).edges == ((0, 1, 1),)
    multi = MultiGraph.build(3, [(0, 1, 2), (0, 2), (1, 2)])
    assert contract_edge(multi, 0, 1, simple=False).edges == ((0, 1, 2),)


def test_lift_pair_conserves_endpoint_degrees():
    g = P(3)
    h = lift_pair(g, 0, 1, 2)
    assert h.n == 3
    assert h.edges == ((0, 2, 1),)
    multi = MultiGraph.build(3, [(0, 1, 2), (1, 2), (0, 2)])
    assert lift_pair(multi, 0, 1, 2).edges == ((0, 1, 1), (0, 2, 2))
    with pytest.raises(ValueError):
        lift_pair(g, 0, 1, 0)
    with pytest.raises(ValueError):
        lift_pair(h, 0, 1, 2)


def test_subdivide_then_contract_roundtrips():
    g = K(3)
    h = subdivide_edge(g, 0, 1)
    assert h.n == 4 and h.multiplicity(0, 1) == 0
    back = contract_edge(h, 0, 3, simple=True)
    assert are_isomorphic(back, g)


def test_disjoint_union_and_copies():
    g = disjoint_union(P(2), C(3))
    assert (g.n, g.total_units) == (5, 4)
    assert copies(3, MultiGraph(1)).n == 3
    with pytest.raises(ValueError):
        copies(0, P(2))


# -- canonical forms and isomorphism -----------------------------------------


@given(multigraphs(max_n=6, max_mult=2), st.integers(0, 10**6))
def test_canonical_form_is_relabeling_invariant(g, seed):
    assert canonical_form(shuffled(g, seed)) == canonical_form(g)


def _brute_force_canonical(g):
    """The least encoding over every order that lists the stable colour
    blocks in colour order, each block in any order."""
    mat = _mult_matrix(g)
    colors = _stable_colors(g.n, mat, [0] * g.n)
    cells = [[v for v in range(g.n) if colors[v] == c] for c in sorted(set(colors))]
    return min(
        bytes([g.n, *(mat[o[i]][o[j]] for i in range(g.n) for j in range(i))])
        for parts in itertools.product(*(itertools.permutations(c) for c in cells))
        for o in [list(itertools.chain.from_iterable(parts))])


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return MultiGraph.build(10, outer + spokes + inner)


SYMMETRIC_GRAPHS = {
    "C8": C(8),
    "K44": complete_bipartite(4, 4),
    "cube": MultiGraph.build(8, [(u, u ^ (1 << b)) for u in range(8)
                                 for b in range(3) if u < u ^ (1 << b)]),
    "wagner": MultiGraph.build(8, [(i, (i + 1) % 8) for i in range(8)]
                               + [(i, i + 4) for i in range(4)]),
    "K4x2": MultiGraph.build(4, [(u, v, 2) for u in range(4) for v in range(u + 1, 4)]),
}


def test_canonical_search_matches_brute_force_on_small_universe():
    for g in enumerate_graphs(5, 2):
        assert _canonical_search(g)[0] == _brute_force_canonical(g), g


@pytest.mark.parametrize("name", sorted(SYMMETRIC_GRAPHS))
def test_canonical_search_matches_brute_force_on_symmetric_graphs(name):
    g = SYMMETRIC_GRAPHS[name]
    assert _canonical_search(g)[0] == _brute_force_canonical(g)


@pytest.mark.parametrize("g", [grid(3), ternary_tree_apex(2),
                               ternary_tree_apex_dual(2), _petersen()],
                         ids=["grid3", "ternary_apex2", "ternary_apex_dual2",
                              "petersen"])
def test_canonical_form_survives_relabelling_of_symmetric_families(g):
    form = _canonical_search(g)[0]
    for seed in range(20):
        assert _canonical_search(shuffled(g, seed))[0] == form


@given(multigraphs(max_n=6, max_mult=2))
def test_relabel_canonically_is_idempotent(g):
    c = relabel_canonically(g)
    assert relabel_canonically(c) == c
    assert canonical_form(c) == canonical_form(g)


def test_are_isomorphic_distinguishes_same_degree_sequences():
    # C3 + P2 and P5 share the degree multiset
    a = MultiGraph.build(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert sorted(a.edge_degrees) == sorted(P(5).edge_degrees)
    assert not are_isomorphic(a, P(5))
    assert are_isomorphic(C(4), shuffled(C(4), 7))


def test_tree_code_only_on_trees():
    assert tree_code(P(4)) is not None
    assert tree_code(MultiGraph(1)) == "()"
    assert tree_code(C(4)) is None
    assert tree_code(MultiGraph.build(2, [(0, 1, 2)])) is None
    # same vertex and unit count as a tree, but disconnected with a cycle
    forest_like = MultiGraph.build(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert tree_code(forest_like) is None


@given(st.integers(2, 9), st.integers(0, 10**6))
def test_tree_code_invariant_on_random_trees(n, seed):
    import random
    rng = random.Random(seed)
    # random recursive tree
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    t = MultiGraph.build(n, edges)
    assert tree_code(t) == tree_code(shuffled(t, seed + 1))


def test_distinct_small_trees_have_distinct_codes():
    star = MultiGraph.build(4, [(0, 1), (0, 2), (0, 3)])
    codes = {tree_code(P(4)), tree_code(star)}
    assert None not in codes and len(codes) == 2


def _tree_code_by_recursion(g):
    """tree_code as it was first written: one recursive call per vertex."""
    if g.n == 1:
        return "()"
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    layer = [v for v in range(g.n) if len(adj[v]) == 1]
    remaining = g.n
    while remaining > 2:
        nxt = []
        for v in layer:
            (w,) = adj[v]
            adj[w].discard(v)
            adj[v].clear()
            if len(adj[w]) == 1:
                nxt.append(w)
        remaining -= len(layer)
        layer = nxt

    def code(v, parent):
        subs = sorted(code(w, v) for w in g.adj[v] if w != parent)
        return "(" + "".join(subs) + ")"

    centers = [v for v in range(g.n) if adj[v]] or layer
    return min(code(c, -1) for c in centers[:2])


def test_tree_code_matches_its_recursive_form_on_every_small_tree():
    trees = [t for t in tree_corpus(12) if t.n]
    assert len(trees) == 987
    for t in trees:
        assert tree_code(t) == _tree_code_by_recursion(t)


def test_deep_trees_are_compared_without_recursion():
    # the recursive tree code ran out of stack from a 1,000-vertex path on
    assert are_isomorphic(shuffled(P(3000), 1), P(3000))
    bunched = caterpillar(2000, range(1, 501))
    spread = caterpillar(2000, range(1, 1000, 2))
    assert sorted(bunched.edge_degrees) == sorted(spread.edge_degrees)
    assert are_isomorphic(shuffled(bunched, 2), bunched)
    assert not are_isomorphic(shuffled(spread, 3), bunched)


# -- enumeration -------------------------------------------------------------


def test_enumeration_counts_frozen():
    # unlabeled multigraph counts, empty graph included
    assert len(list(enumerate_graphs(4, 2))) == 81
    assert len(list(enumerate_graphs(6, 1))) == 209


def test_enumeration_is_sorted_and_duplicate_free():
    keys = [enum_key(g) for g in enumerate_graphs(5, 2)]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def _brute_force_forms(n_max, mult_max):
    """Canonical forms of every labelled graph on at most n_max vertices,
    one per class, in enumeration order."""
    classes = {}
    for n in range(n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mults in itertools.product(range(mult_max + 1), repeat=len(pairs)):
            g = MultiGraph(n, tuple((u, v, m) for (u, v), m in zip(pairs, mults) if m))
            classes.setdefault(canonical_form(g), g)
    return [canonical_form(g) for g in sorted(classes.values(), key=enum_key)]


@pytest.mark.parametrize("n_max,mult_max", [(5, 1), (4, 2), (3, 3)])
def test_enumeration_matches_brute_force(n_max, mult_max):
    assert ([canonical_form(g) for g in enumerate_graphs(n_max, mult_max)]
            == _brute_force_forms(n_max, mult_max))


@pytest.mark.parametrize("n_max,mult_max", [(6, 1), (5, 2)])
def test_enumerated_graphs_are_canonically_labelled(n_max, mult_max):
    for g in enumerate_graphs(n_max, mult_max):
        assert _canonical_search(g)[0] == canonical_form(g)
        assert relabel_canonically(g) == g


@pytest.mark.parametrize("n_max,mult_max,digest", [
    (7, 1, "1277d987d1d9cc9b62b320fc8a9b2a85f3686d011a17525ec4c14aae2272caf6"),
    (5, 2, "e09b093d095031b5bbda16b424773a46802f3fd340026fa84b967ba7445783e7"),
    (6, 2, "a4461b2f7c5da90ea2cdea660970ed3ceef8f054079e4ae413355bd927c35bd7"),
])
def test_enumeration_sequence_pinned(n_max, mult_max, digest):
    forms = b"".join(canonical_form(g) for g in enumerate_graphs(n_max, mult_max))
    assert hashlib.sha256(forms).hexdigest() == digest


def test_enumeration_count_six_vertices_multiplicity_two():
    assert sum(1 for _ in enumerate_graphs(6, 2)) == 26379


@pytest.mark.parametrize("n_max,mult_max,member", [
    (6, 1, is_forest),
    (5, 2, lambda g: max(g.edge_degrees, default=0) <= 3),
])
def test_grower_members_match_filtered_enumeration(n_max, mult_max, member):
    layers = list(_grow_closed(member, n_max, mult_max))
    assert ([g for inside, _ in layers for g in inside]
            == list(enumerate_graphs(n_max, mult_max, predicate=member)))

    def top_deletions(g):
        value = [(g.edge_degrees[v], g.degrees[v]) for v in range(g.n)]
        return [delete_vertices(g, (v,)) for v in range(g.n) if value[v] == max(value)]

    # the non-members are those left by extending members: some deletion of
    # a vertex of largest (edge degree, distinct neighbours) is a member
    assert [g for _, outside in layers for g in outside] == [
        g for g in enumerate_graphs(n_max, mult_max)
        if not member(g) and (g.n == 0 or any(map(member, top_deletions(g))))]


def test_grower_asks_the_predicate_once_per_class():
    asked = []

    def member(g):
        asked.append(canonical_form(g))
        return is_forest(g)

    yielded = [canonical_form(g) for inside, outside in _grow_closed(member, 6, 1)
               for g in inside + outside]
    assert len(set(yielded)) == len(yielded)
    assert sorted(asked) == sorted(yielded)


# -- automorphism generators and orbit-pruned extension ----------------------


def _brute_force_automorphisms(g):
    """Every automorphism of g, by backtracking over the images that keep
    the multiplicities to the vertices already mapped."""
    mat = _mult_matrix(g)
    image = []

    def extend(v):
        if v == g.n:
            yield tuple(image)
            return
        for w in range(g.n):
            if w not in image and all(mat[v][u] == mat[w][image[u]]
                                      for u in range(v)):
                image.append(w)
                yield from extend(v + 1)
                image.pop()

    return list(extend(0))


def _orbits(n, perms):
    """The vertex orbits of the group the permutations generate."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for p in perms:
        for x in range(n):
            root[find(x)] = find(p[x])
    return {frozenset(v for v in range(n) if find(v) == r)
            for r in set(map(find, range(n)))}


def _passing_tuples(parent, mult_max):
    """The attachment tuples whose new vertex has the largest (edge degree,
    distinct neighbours) of the child."""
    ed, dg = parent.edge_degrees, parent.degrees
    out = []
    for attach in itertools.product(range(mult_max + 1), repeat=parent.n):
        top = (sum(attach), parent.n - attach.count(0))
        if not any((ed[u] + m, dg[u] + (m > 0)) > top for u, m in enumerate(attach)):
            out.append(attach)
    return out


def _extend_layer_by_search_per_tuple(layer, n, mult_max):
    """The extension without orbits: one canonical form per passing tuple."""
    keys = set()
    for parent in layer:
        for attach in _passing_tuples(parent, mult_max):
            extra = tuple((u, n - 1, m) for u, m in enumerate(attach) if m > 0)
            keys.add(canonical_form(MultiGraph(n, tuple(sorted(parent.edges + extra)))))
    return sorted((_from_canonical(k) for k in keys), key=enum_key)


ORBIT_GRAPHS = {**SYMMETRIC_GRAPHS, "petersen": _petersen()}


@pytest.mark.parametrize("name", sorted(ORBIT_GRAPHS))
def test_search_generators_give_every_orbit_of_symmetric_graphs(name):
    g = ORBIT_GRAPHS[name]
    brute = _orbits(g.n, _brute_force_automorphisms(g))
    assert _orbits(g.n, _canonical_search(g)[2]) == brute
    assert _orbits(g.n, g._automorphisms) == brute


@pytest.mark.parametrize("n_max,mult_max", [(6, 1), (5, 2)])
def test_seeded_generators_are_automorphisms_giving_every_orbit(n_max, mult_max):
    for g in enumerate_graphs(n_max, mult_max):
        brute = _orbits(g.n, _brute_force_automorphisms(g))
        assert _orbits(g.n, _canonical_search(g)[2]) == brute
        assert g.n == 0 or "_automorphisms" in g.__dict__  # seeded by its layer
        for sigma in g._automorphisms:
            moved = MultiGraph.build(g.n, [(sigma[u], sigma[v], m)
                                           for u, v, m in g.edges])
            assert moved.edges == g.edges
        assert _orbits(g.n, g._automorphisms) == brute


@pytest.mark.parametrize("n_max,mult_max", [(6, 1), (5, 2)])
def test_orbit_pruned_layers_match_one_search_per_tuple(n_max, mult_max):
    for n in range(1, n_max + 1):
        assert list(_layer(n, mult_max)) == _extend_layer_by_search_per_tuple(
            _layer(n - 1, mult_max), n, mult_max)


@pytest.mark.parametrize("name", sorted(BUILTIN_CLASSES))
def test_orbit_pruned_growth_matches_one_search_per_tuple(name):
    member = BUILTIN_CLASSES[name][1]
    n_max, mult_max = FIXTURE_BOUNDS[name]
    for n, (inside, _) in enumerate(_grow_closed(member, n_max, mult_max)):
        if n < n_max:
            assert _extend_layer(inside, n + 1, mult_max) == \
                _extend_layer_by_search_per_tuple(inside, n + 1, mult_max)


def test_extension_searches_one_tuple_per_orbit(monkeypatch):
    parents, children = _layer(5, 1), list(_layer(6, 1))
    assert all("_automorphisms" in p.__dict__ for p in parents)
    orbits = 0
    for p in parents:
        autos = _brute_force_automorphisms(p)
        orbits += len({min(tuple(t[a[u]] for u in range(p.n)) for a in autos)
                       for t in _passing_tuples(p, 1)})
    searched = []
    search = multigraph._canonical_search
    monkeypatch.setattr(multigraph, "_canonical_search",
                        lambda g: searched.append(g) or search(g))
    assert _extend_layer(parents, 6, 1) == children
    assert len(searched) == orbits < sum(len(_passing_tuples(p, 1)) for p in parents)


def test_layers_are_memoized():
    first = _layer(4, 2)
    hits = _layer.cache_info().hits
    assert _layer(4, 2) is first
    assert _layer.cache_info().hits > hits


def test_enumeration_respects_predicate():
    trees = list(enumerate_graphs(5, 1, predicate=lambda g: tree_code(g) is not None))
    assert [g.n for g in trees] == [1, 2, 3, 4, 4, 5, 5, 5]


def test_enumeration_budget_guard():
    for n_max, mult_max, allowed in ((9, 1, 8), (7, 2, 6)):
        with pytest.raises(BudgetExceededError) as exc:
            list(enumerate_graphs(n_max, mult_max))
        assert exc.value.detail["allowed"] == allowed
    with pytest.raises(BudgetExceededError) as exc:
        list(enumerate_graphs(1, MAX_MULTIPLICITY + 1))
    assert exc.value.detail["allowed"] == MAX_MULTIPLICITY == 8
    with pytest.raises(ValueError, match="mult_max must be >= 1"):
        list(enumerate_graphs(3, 0))
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        list(enumerate_graphs(-1, 0))


def test_block_sets_match_networkx_biconnected_components():
    import networkx as nx

    graphs = [*enumerate_graphs(7, 1), *enumerate_graphs(5, 2)]
    assert len(graphs) == 2126
    for g in graphs:
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from((u, v) for u, v, _ in g.edges)
        blocks = _block_sets(g)
        assert len(blocks) == len(set(blocks))
        assert set(blocks) == set(map(frozenset, nx.biconnected_components(G)))


# -- serialization -----------------------------------------------------------


@given(multigraphs(max_n=6, max_mult=3))
def test_text_roundtrip(g):
    assert parse_graph_text(format_graph_text(g)) == g


@given(multigraphs(max_n=8, max_mult=1))
def test_graph6_roundtrip_for_simple_graphs(g):
    assert from_graph6(to_graph6(g)) == g


def test_graph6_rejects_multigraphs():
    with pytest.raises(ValueError):
        to_graph6(MultiGraph.build(2, [(0, 1, 2)]))


def test_graph6_one_byte_header_stops_at_62_vertices():
    assert from_graph6("}" + "?" * 316) == MultiGraph(62)
    # 0x7F would read as 64 vertices; a one-byte header holds 0 to 62
    with pytest.raises(GraphFormatError, match="bad graph6 header"):
        from_graph6("\x7f" + "?" * 336)


def test_graph_set_roundtrip_preserves_order():
    batch = [K0, P(3), C(4), MultiGraph.build(2, [(0, 1, 5)])]
    text = format_graph_set(batch, comment="four graphs")
    assert parse_graph_set(text) == batch


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("blank", ["", " ", "\t "])
def test_graph_set_splits_on_lines_blank_after_strip(newline, blank):
    text = newline.join(["n 1", blank, "n 2", "e 0 1 1", blank, ""])
    assert parse_graph_set(text) == [MultiGraph(1), P(2)]


def test_parse_graph_text_bounds_the_vertex_count():
    assert parse_graph_text("n 1000000\n").n == 10**6
    with pytest.raises(GraphFormatError,
                       match="line 2: vertex count 1000001 above the limit"):
        parse_graph_text("# big\nn 1000001\n")


def test_parse_graph_text_rejects_garbage():
    with pytest.raises(ValueError):
        parse_graph_text("n 2\ne 0 5\n")
    with pytest.raises(ValueError):
        parse_graph_text("nonsense")
