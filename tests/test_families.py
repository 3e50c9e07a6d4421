import hashlib
from collections import Counter
from functools import partial

import pytest

from obskit import are_isomorphic, families
from obskit.multigraph import (
    MAX_MULTI_VERTICES,
    MAX_MULTIPLICITY,
    MAX_SIMPLE_VERTICES,
    BudgetExceededError,
    MultiGraph,
    canonical_form,
    enumerate_graphs,
    format_graph_text,
)
from obskit.families import (
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
    parse_class_spec,
    path,
    star,
    ternary_tree,
    ternary_tree_apex,
    ternary_tree_apex_dual,
    theta,
    verify_family_step,
)
from obskit.obstructions import BUILTIN_CLASSES, fixture_graphs, is_forest
from obskit.relations import Mode, Relation, contains, verify_minor_model
from obskit.verify import FIXTURE_BOUNDS


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


@pytest.mark.parametrize("name", sorted(
    ["grid", "ternary_tree", "ternary_tree_apex", "ternary_tree_apex_dual",
     "star", "theta", "path", "complete"]))
def test_family_steps_verify_and_grow(name):
    fam = family_by_name(name)
    for k in range(fam.base_index, fam.base_index + 3):
        assert verify_family_step(fam, k)
        assert growth_size(fam.member(k)) < growth_size(fam.member(k + 1))


#: the first index of each family whose member has more than
#: MAX_GRAPH_SIZE vertices plus edge pairs; theta has 3 at every index
FIRST_REFUSED = {"grid": 578, "complete": 1414, "star": 500000, "path": 500001,
                 "ternary_tree": 18, "ternary_tree_apex": 18,
                 "ternary_tree_apex_dual": 17}


class _Checked(Exception):
    """Raised once a member has passed its size check, so that it is not
    built."""


def _spy_sizes(monkeypatch, then=None):
    sizes = []
    real = families._check_size

    def spy(member, size):
        sizes.append(size)
        real(member, size)
        if then is not None:
            raise then

    monkeypatch.setattr(families, "_check_size", spy)
    return sizes


def test_each_generator_checks_its_exact_size(monkeypatch):
    sizes = _spy_sizes(monkeypatch)
    builds = [partial(fam.member, k) for fam in FAMILIES.values()
              if fam.name != "theta"
              for k in range(fam.base_index, fam.base_index + 6)]
    builds += [partial(fan, n) for n in range(1, 7)]
    builds += [partial(complete_bipartite, m, n)
               for m in range(4) for n in range(4)]
    for build in builds:
        sizes.clear()
        g = build()
        assert sizes == [g.n + len(g.edges)], build


@pytest.mark.parametrize("name", sorted(FIRST_REFUSED))
def test_members_above_the_size_limit_are_refused(monkeypatch, name):
    fam = FAMILIES[name]
    with pytest.raises(ValueError, match="limit of 1000000 vertices plus edge"):
        fam.member(FIRST_REFUSED[name])
    with pytest.raises(ValueError, match="limit"):
        fam.member(10**100)
    _spy_sizes(monkeypatch, then=_Checked)
    with pytest.raises(_Checked):
        fam.member(FIRST_REFUSED[name] - 1)


def test_theta_has_no_size_limit():
    assert theta(10**100).edges == ((0, 1, 10**100),)


# -- finitely presented classes ---------------------------------------------------


def test_class_spec_membership():
    forests = ClassSpec(Relation.MINOR, (complete(3),))
    assert forests.member(path(5))
    assert forests.member(star(4))
    assert not forests.member(complete(3))
    outer = ClassSpec(Relation.MINOR, (complete(4), complete_bipartite(2, 3)))
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


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("blank", ["", " ", "\t "])
def test_class_spec_splits_on_lines_blank_after_strip(newline, blank):
    text = newline.join(["relation minor", "mode multi 3", blank, "n 3",
                         "e 0 1 1", "e 0 2 1", "e 1 2 1", blank, "n 2",
                         "e 0 1 4", ""])
    spec = parse_class_spec(text)
    assert spec.relation is Relation.MINOR and spec.mult_cap == 3
    assert spec.obstructions == (complete(3), theta(4))


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
    g1, g2 = omnivore_chain(Relation.MINOR, is_forest, 2)
    assert (g1.n, g1.total_units) == (1, 0)
    assert (g2.n, g2.total_units) == (2, 1)


def test_omnivore_chain_matches_fixture():
    chain = omnivore_chain(*BUILTIN_CLASSES["forests"], 5)
    fixed = fixture_graphs("omnivore_forests.txt")
    assert [canonical_form(g) for g in chain] == \
        [canonical_form(g) for g in fixed]
    for g in chain:
        assert is_forest(g)
    for a, b in zip(chain, chain[1:]):
        assert contains(Relation.MINOR, a, b)


def test_omnivore_steps_match_their_definition():
    relation, member = BUILTIN_CLASSES["outerplanar"]
    members = [g for g in enumerate_graphs(6, 1) if member(g)]
    chain = omnivore_chain(relation, member, 4)
    prev = None
    for k, got in enumerate(chain, start=1):
        # the enumeration-least member above prev and every member on <= k vertices
        want = next(c for c in members
                    if (prev is None or contains(relation, prev, c))
                    and all(contains(relation, t, c)
                            for t in members if t.n <= k))
        assert canonical_form(got) == canonical_form(want)
        prev = got


#: sha256 of the concatenated format_graph_text of each chain, walked at
#: the multiplicity the class's obstruction set ships at
OMNIVORE_CHAIN_SHA256 = {
    ("forests", 5): "a3daa007156a0c46b34d76854bb97c264b5127d49c9cec85278fe387078bf61f",
    ("outerplanar", 6): "3bde526aaaffcb83fa92bd09cf6546e360779263a029e4a4bd7b9a55504c8cd4",
    ("apex_forest", 5): "45dd2309534a2a27157bd65ee6fb99eef2cd405f6c265d4cd9ff0a1c61b1436d",
    ("subcubic_forest", 5): "99a65c9ec46b62fc2a9723b72911f56bd62ada4de0bd08e660475fa6bf47a74d",
    ("star_or_edgeless", 5): "febb523f454d63c8e26a43eee9d627e350df0519f6bc84a84ff7601a473f8959",
    ("theta_like", 5): "5647b2e8a98867843eb2af78ce1d5b2e4e16b81fdbe331c68276a8211dc47687",
}


@pytest.mark.parametrize("name,length", sorted(OMNIVORE_CHAIN_SHA256))
def test_omnivore_chain_matches_its_pinned_hash(name, length):
    relation, member = BUILTIN_CLASSES[name]
    chain = omnivore_chain(relation, member, length, FIXTURE_BOUNDS[name][1])
    text = "".join(format_graph_text(g) for g in chain)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        OMNIVORE_CHAIN_SHA256[name, length]


def test_omnivore_chain_of_a_class_spec_matches_the_native_predicate():
    spec = parse_class_spec(format_class_spec(
        ClassSpec(Relation.MINOR, (complete(4), complete_bipartite(2, 3)))))
    from_spec = omnivore_chain(spec.relation, spec.member, 5)
    native = omnivore_chain(*BUILTIN_CLASSES["outerplanar"], 5)
    assert [canonical_form(g) for g in from_spec] == \
        [canonical_form(g) for g in native]


def test_omnivore_chain_past_the_vertex_cap_is_a_budget_error():
    # theta_like members have at most two vertices, so at multiplicity 2
    # every step from 2 on is theta(2) until the coverage level passes the cap
    relation, member = BUILTIN_CLASSES["theta_like"]
    chain = omnivore_chain(relation, member, MAX_MULTI_VERTICES, 2)
    assert [(g.n, g.total_units) for g in chain] == \
        [(1, 0)] + [(2, 2)] * (MAX_MULTI_VERTICES - 1)
    with pytest.raises(BudgetExceededError,
                       match="coverage level exceeds the enumeration budget") as exc:
        omnivore_chain(relation, member, MAX_MULTI_VERTICES + 1, 2)
    assert exc.value.detail == {"k": MAX_MULTI_VERTICES + 1,
                                "vertex_budget": MAX_MULTI_VERTICES}


def test_omnivore_chain_reports_where_the_growth_ran_out():
    with pytest.raises(BudgetExceededError, match="before a covering member") as exc:
        omnivore_chain(*BUILTIN_CLASSES["forests"], MAX_SIMPLE_VERTICES + 1)
    assert exc.value.detail == {"k": 6, "vertex_budget": MAX_SIMPLE_VERTICES,
                                "frontier_vertices": MAX_SIMPLE_VERTICES}
