import hashlib
from collections import Counter

import pytest

from obskit.multigraph import (
    MAX_MULTIPLICITY,
    MultiGraph,
    are_isomorphic,
    canonical_form,
    enumerate_graphs,
    format_graph_text,
)
from obskit.families import (
    CLASS_SPECS,
    FAMILIES,
    ClassSpec,
    _apex_faces,
    apex_dual_nesting_model,
    complete,
    complete_bipartite,
    family_by_name,
    fan,
    format_class_spec,
    grid,
    growth_size,
    omnivore_chain,
    omnivore_step,
    parse_class_spec,
    path,
    star,
    ternary_tree,
    ternary_tree_apex,
    ternary_tree_apex_dual,
    theta,
    verify_family_step,
)
from obskit.obstructions import fixture_graphs, is_forest
from obskit.relations import Mode, Relation, contains, verify_minor_model


def test_shape_constructors():
    assert grid(3).n == 9 and grid(3).total_units == 12
    assert grid(1).n == 1
    assert star(4).edges == ((0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1))
    assert theta(3).edges == ((0, 1, 3),)
    assert path(1).n == 1 and path(4).total_units == 3
    assert complete(4).total_units == 6
    assert complete_bipartite(2, 3).total_units == 6
    assert fan(5).n == 5
    with pytest.raises(ValueError):
        grid(0)
    with pytest.raises(ValueError):
        theta(0)


def test_ternary_tree_sizes():
    assert [ternary_tree(k).n for k in range(1, 5)] == [4, 10, 22, 46]
    t2 = ternary_tree(2)
    assert t2.total_units == t2.n - 1
    assert max(t2.edge_degrees) <= 4


def test_apex_variants_sizes():
    ta = ternary_tree_apex(2)
    assert (ta.n, ta.total_units) == (11, 15)
    td = ternary_tree_apex_dual(2)
    assert (td.n, td.total_units) == (12, 21)
    # the dual nesting model certifies one step of containment
    assert verify_minor_model(td, ternary_tree_apex_dual(3),
                              apex_dual_nesting_model(2), mode=Mode.SIMPLE)


#: sha256 prefixes of format_graph_text(ternary_tree_apex_dual(k))
APEX_DUAL_SHA256 = {2: "974f02d31848eb51", 3: "a2088d7d0b95fb70",
                    4: "a5204310503e6ad9", 5: "770d28460192b9b6"}

#: apex_dual_nesting_model(k), one singleton branch set per vertex
APEX_DUAL_NESTING = {
    2: [0, 1, 2, 3, 4, 5, 7, 8, 6, 11, 9, 10],
    3: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 16, 12, 23, 19, 20, 13, 14,
        17, 18, 21, 22],
    4: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
        20, 21, 22, 23, 31, 32, 24, 47, 39, 40, 27, 28, 35, 36, 43, 44, 25, 26,
        29, 30, 33, 34, 37, 38, 41, 42, 45, 46],
}


def test_apex_dual_and_its_nesting_model_are_pinned():
    for k, digest in APEX_DUAL_SHA256.items():
        text = format_graph_text(ternary_tree_apex_dual(k))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, k
    for k, targets in APEX_DUAL_NESTING.items():
        assert apex_dual_nesting_model(k) == tuple(frozenset((v,)) for v in targets)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_apex_faces_form_a_planar_drawing_and_its_dual(k):
    host, dual = ternary_tree_apex(k), ternary_tree_apex_dual(k)
    faces = _apex_faces(k)[0]
    leaves = 3 * 2 ** (k - 1)
    assert len(faces) == leaves
    assert host.n - len(host.edges) + len(faces) == 2
    on = {}
    for i, face in enumerate(faces):
        for e in face:
            on.setdefault(e, []).append(i)
    assert sorted(on) == [(u, v) for u, v, _ in host.edges]
    assert all(len(set(fs)) == len(fs) == 2 for fs in on.values())
    # the face pairs that share two primal edges are the pairs beside a leaf,
    # and exactly those are subdivided in the dual
    shared = Counter(tuple(fs) for fs in on.values())
    apex = host.n - 1
    beside_leaf = {tuple(i for i, face in enumerate(faces) if (x, apex) in face)
                   for x in range(apex - leaves, apex)}
    assert {fs for fs, m in shared.items() if m == 2} == beside_leaf
    assert max(shared.values()) == 2
    assert dual.n == len(faces) + leaves
    assert {tuple(sorted(dual.adj[s])) for s in range(len(faces), dual.n)} == beside_leaf
    model = apex_dual_nesting_model(k)
    assert len(set(model)) == len(model) == dual.n
    assert verify_minor_model(dual, ternary_tree_apex_dual(k + 1), model,
                              mode=Mode.SIMPLE)


def test_growth_size_measure():
    assert growth_size(MultiGraph(0)) == 0
    assert growth_size(theta(3)) == 5
    assert growth_size(grid(2)) == 8


def test_registry_and_lookup():
    assert set(FAMILIES) == {
        "grid", "ternary_tree", "ternary_tree_apex", "ternary_tree_apex_dual",
        "star", "theta", "path", "complete"}
    assert family_by_name("GRID").name == "grid"
    with pytest.raises(ValueError):
        family_by_name("cactus")


def test_member_respects_base_index():
    fam = family_by_name("grid")
    assert fam.base_index == 2
    with pytest.raises(ValueError):
        fam.member(1)
    assert fam.prefix(2) == [grid(2), grid(3)]


@pytest.mark.parametrize("name", sorted(
    ["grid", "ternary_tree", "ternary_tree_apex", "ternary_tree_apex_dual",
     "star", "theta", "path", "complete"]))
def test_family_steps_verify_and_grow(name):
    fam = family_by_name(name)
    for k in range(fam.base_index, fam.base_index + 3):
        assert verify_family_step(fam, k)
        assert growth_size(fam.member(k)) < growth_size(fam.member(k + 1))


# -- finitely presented classes ---------------------------------------------------


def test_class_spec_membership():
    forests = CLASS_SPECS["forests"]
    assert forests.member(path(5))
    assert forests.member(star(4))
    assert not forests.member(complete(3))
    outer = CLASS_SPECS["outerplanar"]
    assert outer.member(fan(5))
    assert not outer.member(complete(4))
    assert not outer.member(grid(3))


def test_class_spec_requires_antichain():
    with pytest.raises(ValueError):
        ClassSpec(Relation.MINOR, (complete(3), complete(4)))
    # an antichain in its own mode, although K3 contains K2 once simplified
    spec = ClassSpec(Relation.MINOR, (complete(3), theta(3)), Mode.MULTI, mult_cap=3)
    assert spec.member(theta(2)) and not spec.member(theta(3))


def test_class_spec_roundtrip():
    spec = ClassSpec(Relation.IMMERSION, (theta(2), star(4)),
                     Mode.MULTI, mult_cap=3)
    again = parse_class_spec(format_class_spec(spec))
    assert again.relation is Relation.IMMERSION
    assert again.mode is Mode.MULTI and again.mult_cap == 3
    assert [canonical_form(o) for o in again.obstructions] == \
        [canonical_form(o) for o in spec.obstructions]
    with pytest.raises(ValueError):
        parse_class_spec("mode simple\n\nn 1\n")


@pytest.mark.parametrize("header", [
    "mode", "mode multi 0", "mode multi 50", "mode multi x", "mode multi -1",
    "mode multi 2 3", "mode loose"])
def test_class_spec_rejects_bad_mode_lines(header):
    text = f"relation minor\n{header}\n\n" + format_graph_text(complete(3))
    with pytest.raises(ValueError, match=f"bad class header line: '{header}'"):
        parse_class_spec(text)


def test_class_spec_multiplicity_cap_range():
    text = "relation minor\nmode multi {}\n\n" + format_graph_text(complete(3))
    top = MAX_MULTIPLICITY
    assert parse_class_spec(text.format(1)).mult_cap == 1
    assert parse_class_spec(text.format(top)).mult_cap == top
    with pytest.raises(ValueError, match=f"integer in 1..{top}"):
        parse_class_spec(text.format(top + 1))


def test_class_spec_checks_its_multiplicity_cap():
    top = MAX_MULTIPLICITY
    for cap in (0, top + 1):
        with pytest.raises(ValueError, match=f"integer in 1..{top}"):
            ClassSpec(Relation.MINOR, (complete(3),), Mode.MULTI, mult_cap=cap)
    for cap in range(1, top + 1):
        spec = ClassSpec(Relation.MINOR, (complete(3),), Mode.MULTI, mult_cap=cap)
        assert parse_class_spec(format_class_spec(spec)).mult_cap == cap


# -- omnivore ---------------------------------------------------------------------


def test_omnivore_first_steps_for_forests():
    spec = CLASS_SPECS["forests"]
    g1 = omnivore_step(spec, 1)
    assert (g1.n, g1.total_units) == (1, 0)
    g2 = omnivore_step(spec, 2, g1)
    assert (g2.n, g2.total_units) == (2, 1)


def test_omnivore_chain_matches_fixture():
    chain = omnivore_chain(CLASS_SPECS["forests"], 5)
    fixed = fixture_graphs("omnivore_forests.txt")
    assert [canonical_form(g) for g in chain] == \
        [canonical_form(g) for g in fixed]
    for g in chain:
        assert is_forest(g)
    for a, b in zip(chain, chain[1:]):
        assert contains(Relation.MINOR, a, b)


def test_omnivore_steps_match_their_definition():
    spec = CLASS_SPECS["outerplanar"]
    members = [g for g in enumerate_graphs(6, 1) if spec.member(g)]
    prev = None
    for k in range(1, 5):
        # the enumeration-least member above prev and every member on <= k vertices
        want = next(c for c in members
                    if (prev is None or contains(spec.relation, prev, c))
                    and all(contains(spec.relation, t, c)
                            for t in members if t.n <= k))
        got = omnivore_step(spec, k, prev, n_budget=6)
        assert canonical_form(got) == canonical_form(want)
        prev = got


def test_omnivore_steps_are_memoized():
    spec = CLASS_SPECS["forests"]
    omnivore_step.cache_clear()
    first = omnivore_step(spec, 2)
    assert omnivore_step(spec, 2) is first
    assert omnivore_step.cache_info().hits == 1


def test_omnivore_rejects_bad_index():
    with pytest.raises(ValueError):
        omnivore_step(CLASS_SPECS["forests"], 0)
