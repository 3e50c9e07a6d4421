import pytest

from obskit.multigraph import (
    DEFAULT_ENUM_BUDGET,
    MultiGraph,
    are_isomorphic,
    canonical_form,
    copies,
    format_graph_text,
)
from obskit.families import (
    CLASS_SPECS,
    FAMILIES,
    ClassSpec,
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
    top = DEFAULT_ENUM_BUDGET.max_multiplicity
    assert parse_class_spec(text.format(1)).mult_cap == 1
    assert parse_class_spec(text.format(top)).mult_cap == top
    with pytest.raises(ValueError, match=f"integer in 1..{top}"):
        parse_class_spec(text.format(top + 1))


def test_class_spec_checks_its_multiplicity_cap():
    top = DEFAULT_ENUM_BUDGET.max_multiplicity
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


def test_omnivore_steps_are_memoized():
    spec = CLASS_SPECS["forests"]
    omnivore_step.cache_clear()
    first = omnivore_step(spec, 2)
    assert omnivore_step(spec, 2) is first
    assert omnivore_step.cache_info().hits == 1


def test_omnivore_rejects_bad_index():
    with pytest.raises(ValueError):
        omnivore_step(CLASS_SPECS["forests"], 0)
