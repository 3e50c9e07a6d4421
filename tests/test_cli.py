import json
from pathlib import Path

import pytest

from conftest import drop_one_matched_pair, shuffled
from obskit.cli import INTERNAL_EXIT, USAGE_EXIT, main
from obskit.families import FAMILIES, complete, grid, path, star
from obskit.multigraph import (MultiGraph, format_graph_text,
                               parse_graph_text, to_graph6)
from obskit.poset import FinitePoset, format_poset_text, rado_truncation
from obskit.universal import CERTIFICATES, CORPORA


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse reports usage errors by exiting
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_command_is_a_usage_error(capsys):
    code, _, err = run(capsys, )
    assert code == USAGE_EXIT
    assert "usage" in err.lower()


def test_unknown_command_is_a_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == USAGE_EXIT


def test_contain_json(capsys, files):
    h = files("h.txt", format_graph_text(star(3)))
    g = files("g.txt", format_graph_text(grid(3)))
    code, out, _ = run(capsys, "contain", "--relation", "minor",
                       "--h", h, "--g", g)
    assert code == 0
    data = json.loads(out)
    assert data["contains"] is True
    assert data["config"]["relation"] == "minor"
    assert data["config"]["conventions"]["grid_base_index"] == 2


def test_contain_answers_on_deep_trees(capsys, files):
    # tree codes and the tree-minor table once recursed along the tree
    g = files("g.txt", format_graph_text(path(3000)))
    for relation, h in (("subgraph", shuffled(path(3000), 1)), ("minor", path(5))):
        h = files("h.txt", format_graph_text(h))
        code, out, err = run(capsys, "contain", "--relation", relation,
                             "--h", h, "--g", g)
        assert (code, err) == (0, "")
        assert json.loads(out)["contains"] is True


def test_contain_refuses_an_open_isomorphism_test_above_255_vertices(
        capsys, files):
    c300 = MultiGraph.build(300, [(i, (i + 1) % 300) for i in range(300)])
    two_c150 = MultiGraph.build(300, [(i, (i + 1) % 150 + 150 * (i >= 150))
                                      for i in range(300)])
    h = files("h.txt", format_graph_text(c300))
    g = files("g.txt", format_graph_text(two_c150))
    code, out, err = run(capsys, "contain", "--relation", "subgraph",
                         "--h", h, "--g", g)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "isomorphism search limited to 255 vertices"}


@pytest.mark.parametrize("relation,units", [("immersion", 500),
                                            ("tm", 2000)])
def test_contain_refuses_a_routing_that_runs_out_of_stack(capsys, files,
                                                         relation, units):
    # one unit must go round through vertex 2; the routing recursion used
    # to outgrow Python's stack here and print a RecursionError traceback
    h = files("h.txt", f"n 2\ne 0 1 {units}\n")
    g = files("g.txt", f"n 3\ne 0 1 {units - 1}\ne 0 2 1\ne 1 2 1\n")
    code, out, err = run(capsys, "contain", "--relation", relation,
                         "--mode", "multi", "--h", h, "--g", g)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": f"routing ran out of stack at {units} pattern edge units"}


def test_contain_reads_graph6(capsys, files):
    h = files("h.g6", to_graph6(star(3)) + "\n")
    g = files("g.g6", to_graph6(grid(2)) + "\n")
    code, out, _ = run(capsys, "contain", "--relation", "sub",
                       "--h", h, "--g", g)
    assert code == 0
    assert json.loads(out)["contains"] is False


def test_a_graph6_header_past_62_vertices_is_a_runtime_error(capsys, files):
    g = files("g.g6", "\x7f" + "?" * 336 + "\n")
    code, out, err = run(capsys, "param", "--kind", "edge_degree", "--g", g)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "bad graph6 header"}


def test_a_graph6_file_holding_two_graphs_is_a_runtime_error(capsys, files):
    g = files("g.g6", "Bw\nC~\n")
    code, out, err = run(capsys, "param", "--kind", "edge_degree", "--g", g)
    assert (code, out) == (1, "")
    assert "more than one graph6 line" in json.loads(err)["error"]
    g = files("c.g6", "# the triangle\nBw\n")
    assert run(capsys, "param", "--kind", "edge_degree", "--g", g)[0] == 0


def test_contain_missing_file_is_a_runtime_error(capsys, files):
    h = files("h.txt", format_graph_text(star(3)))
    code, _, err = run(capsys, "contain", "--relation", "minor",
                       "--h", h, "--g", h + ".missing")
    assert code == 1
    assert "error" in err


def test_param_treewidth(capsys, files):
    g = files("g.txt", format_graph_text(grid(3)))
    code, out, _ = run(capsys, "param", "--kind", "tw", "--g", g)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 3
    assert data["kind"] == "treewidth"


def test_param_apex_distance_with_witness(capsys, files):
    g = files("g.txt", format_graph_text(grid(3)))
    z = files("z.txt", format_graph_text(grid(2)))
    code, out, _ = run(capsys, "param", "--kind", "z_apex", "--g", g, "--z", z)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 2
    assert len(data["witness"]) == 2


def test_param_z_needs_the_z_apex_kind(capsys, files):
    g = files("g.txt", format_graph_text(grid(3)))
    z = files("z.txt", format_graph_text(grid(2)))
    for kind in ((), ("--kind", "cutwidth")):
        code, out, err = run(capsys, "param", *kind, "--g", g, "--z", z)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "--z is read only by --kind z_apex"}
    code, out, err = run(capsys, "param", "--kind", "z_apex", "--g", g)
    assert (code, out) == (1, "")
    assert "z_apex needs" in json.loads(err)["error"]


def test_param_empty_forbidden_minor_is_a_domain_error(capsys, files):
    g = files("g.txt", format_graph_text(complete(3)))
    z = files("z.txt", "n 0\n")
    code, out, err = run(capsys, "param", "--kind", "z_apex", "--g", g, "--z", z)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "z_apex cannot forbid K0: every graph has it as a minor"}


def test_gen_roundtrips_through_contain(capsys, files, tmp_path):
    out_file = str(tmp_path / "member.txt")
    code, _, _ = run(capsys, "gen", "--family", "grid", "--k", "3",
                     "--out", out_file)
    assert code == 0
    g = files("small.txt", format_graph_text(grid(2)))
    code, out, _ = run(capsys, "contain", "--relation", "minor",
                       "--h", g, "--g", out_file)
    assert code == 0 and json.loads(out)["contains"] is True


def test_gen_to_stdout_is_plain_text(capsys):
    code, out, _ = run(capsys, "gen", "--family", "star", "--k", "4",
                       "--out", "-")
    assert code == 0
    assert out.startswith("n 5\n")


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_gen_emits_every_family_from_its_base_index(capsys, name):
    fam = FAMILIES[name]
    for k in (fam.base_index, fam.base_index + 1):
        code, out, _ = run(capsys, "gen", "--family", name, "--k", str(k))
        assert code == 0
        assert parse_graph_text(out) == fam.member(k)


def test_gen_below_base_index_fails_cleanly(capsys):
    code, _, err = run(capsys, "gen", "--family", "grid", "--k", "1")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("family,k", [("ternary_tree", "40"),
                                      ("grid", "100000")])
def test_gen_refuses_members_above_the_size_limit(capsys, family, k):
    code, out, err = run(capsys, "gen", "--family", family, "--k", k)
    assert (code, out) == (1, "")
    assert "limit of 1000000" in json.loads(err)["error"]


def test_obs_builtin_class(capsys):
    code, out, _ = run(capsys, "obs", "--class", "forests", "--nmax", "5")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["obstructions"][0].startswith("n 3")
    assert data["config"]["nmax"] == 5


def test_contain_echoes_its_budget(capsys, files):
    h = files("h.txt", format_graph_text(star(3)))
    g = files("g.txt", format_graph_text(grid(3)))
    code, out, _ = run(capsys, "contain", "--relation", "minor",
                       "--h", h, "--g", g, "--budget-ms", "1000")
    assert code == 0
    assert json.loads(out)["config"]["budget_ms"] == 1000.0


def test_budget_environment_default(capsys, files, monkeypatch):
    h = files("h.txt", format_graph_text(star(3)))
    g = files("g.txt", format_graph_text(grid(3)))
    argv = ("contain", "--relation", "minor", "--h", h, "--g", g)
    monkeypatch.setenv("OBSKIT_BUDGET_MS", "2000")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["config"]["budget_ms"] == 2000.0
    monkeypatch.setenv("OBSKIT_BUDGET_MS", "soon")
    assert run(capsys, *argv)[0] == USAGE_EXIT
    assert run(capsys, "poset", "rado", "--n", "3")[0] == 0


def test_non_positive_budgets_are_rejected(capsys, files, monkeypatch):
    h = files("h.txt", format_graph_text(star(3)))
    g = files("g.txt", format_graph_text(grid(3)))
    argv = ("contain", "--relation", "minor", "--h", h, "--g", g)
    for budget in ("-5", "0"):
        code, out, err = run(capsys, *argv, "--budget-ms", budget)
        assert code == 1 and out == "" and "budget_ms" in json.loads(err)["error"]
    monkeypatch.setenv("OBSKIT_BUDGET_MS", "0")
    code, out, _ = run(capsys, *argv)
    assert code == 1 and out == ""
    code, out, _ = run(capsys, *argv, "--budget-ms", "1000")
    assert code == 0 and json.loads(out)["contains"] is True


def test_internal_invariant_failure_exit_code(capsys, files, monkeypatch):
    def broken(_poset):
        raise AssertionError("chain partition disagrees with width")

    monkeypatch.setattr("obskit.cli.poset_width", broken)
    p = files("p.txt", "elem a\nelem b\nle a b\n")
    code, out, err = run(capsys, "poset", "width", "--poset", p)
    assert code == INTERNAL_EXIT == 70
    assert out == ""
    assert "chain partition" in json.loads(err)["error"]


def test_flags_live_only_on_the_commands_that_use_them(capsys, files):
    g = files("g.txt", format_graph_text(grid(2)))
    assert run(capsys, "param", "--budget-ms", "5", "--kind", "tw",
               "--g", g)[0] == USAGE_EXIT
    assert run(capsys, "poset", "rado", "--n", "3", "--nmax", "4")[0] == USAGE_EXIT
    code, out, _ = run(capsys, "poset", "rado", "--n", "3")
    assert code == 0
    assert "budget_ms" not in json.loads(out)["config"]


@pytest.mark.parametrize("argv", [
    ("gap", "--certificate", "treewidth", "--k", "-2"),
    ("gap", "--certificate", "treewidth", "--k", "2"),
    ("eval", "--collection", "grids", "--k", "5"),
], ids=["gap-negative", "gap", "eval"])
def test_universal_k_lives_only_on_approx(capsys, files, argv):
    g = files("g.txt", format_graph_text(grid(2)))
    extra = ("--g", g) if argv[0] == "eval" else ()
    code, out, err = run(capsys, "universal", *argv, *extra)
    assert code == USAGE_EXIT and out == ""
    assert "unrecognized arguments: --k" in err


@pytest.mark.parametrize("argv", [
    ("universal", "approx", "--certificate", "treewidth", "--g", "G", "--k", "1",
     "--corpus", "simple6"),
    ("universal", "approx", "--certificate", "treewidth", "--g", "G", "--k", "1",
     "--collection", "grids"),
    ("universal", "approx", "--certificate", "treewidth", "--g", "G", "--k", "1",
     "--collection-file", "C"),
    ("universal", "eval", "--collection", "grids", "--g", "G",
     "--certificate", "treewidth"),
    ("universal", "eval", "--collection", "grids", "--g", "G",
     "--corpus", "simple6"),
    ("universal", "eval", "--collection", "grids", "--collection-file", "C",
     "--g", "G"),
    ("universal", "gap", "--certificate", "edge_degree", "--g", "G"),
    ("universal", "gap", "--certificate", "edge_degree", "--collection", "grids"),
    ("poset", "width", "--poset", "P", "--n", "3"),
    ("poset", "width", "--poset", "P", "--witness", "2", "5"),
    ("poset", "rado", "--n", "3", "--poset", "P"),
    ("universal", "--format", "tsv", "gap", "--certificate", "edge_degree"),
], ids=["approx-corpus", "approx-collection", "approx-collection-file",
        "eval-certificate", "eval-corpus", "eval-both-collections", "gap-g",
        "gap-collection", "width-n", "width-witness", "rado-poset",
        "format-before-action"])
def test_flags_an_action_does_not_read_are_usage_errors(capsys, files, argv):
    paths = {"G": files("g.txt", format_graph_text(grid(2))),
             "C": files("c.json", '{"relation": "minor", "families": ["grid"]}'),
             "P": files("p.txt", "elem a\nelem b\nle a b\n")}
    code, out, _ = run(capsys, *(paths.get(a, a) for a in argv))
    assert (code, out) == (USAGE_EXIT, "")


@pytest.mark.parametrize("argv, usage", [
    (("universal", "gap", "--certificate", "edge_degree", "--g", "G"),
     "usage: obskit universal gap "),
    (("param", "--g", "G", "--budget-ms", "5"), "usage: obskit param "),
    (("contain", "--relation", "minor", "--h", "G", "--g", "G", "extra"),
     "usage: obskit contain "),
    (("--bogus",), "usage: obskit [-h] "),
], ids=["universal-gap", "param", "contain-positional", "top-level"])
def test_unread_arguments_print_the_usage_they_followed(capsys, files, argv, usage):
    g = files("g.txt", format_graph_text(grid(2)))
    code, out, err = run(capsys, *(g if a == "G" else a for a in argv))
    assert (code, out) == (USAGE_EXIT, "")
    assert err.startswith(usage)
    assert "error: unrecognized arguments: " in err


def test_obs_beyond_the_size_cap_fails_cleanly(capsys):
    code, out, err = run(capsys, "obs", "--class", "forests", "--nmax", "9")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "enumeration to 9 vertices at mult_max=1 exceeds the budget"}


def test_obs_unknown_class_fails_cleanly(capsys):
    code, out, err = run(capsys, "obs", "--class", "chordal")
    assert (code, out) == (USAGE_EXIT, "")
    assert "invalid choice: 'chordal'" in err


@pytest.mark.parametrize("argv, name", [
    (("approx", "--certificate", "genus", "--g", "G", "--k", "1"), "genus"),
    (("gap", "--certificate", "genus"), "genus"),
    (("eval", "--collection", "cliques", "--g", "G"), "cliques"),
    (("gap", "--certificate", "treewidth", "--corpus", "trees20"), "trees20"),
], ids=["approx-certificate", "gap-certificate", "collection", "corpus"])
def test_unknown_registry_names_are_usage_errors(capsys, files, argv, name):
    g = files("g.txt", format_graph_text(grid(2)))
    code, out, err = run(capsys, "universal", *(g if a == "G" else a for a in argv))
    assert (code, out) == (USAGE_EXIT, "")
    assert f"invalid choice: '{name}'" in err


def test_universal_eval(capsys, files):
    g = files("g.txt", format_graph_text(grid(3)))
    code, out, _ = run(capsys, "universal", "eval", "--collection", "grids",
                       "--g", g)
    assert code == 0
    assert json.loads(out)["value"] == 4


@pytest.mark.parametrize("text", [
    '["minor", ["grid"]]',
    '{"relation": 5, "families": ["grid"]}',
    '{"relation": "minor", "families": "grid"}',
    '{"relation": "minor", "families": [2]}',
    '{"name": 7, "relation": "minor", "families": ["grid"]}',
], ids=["list", "relation-int", "families-str", "family-int", "name-int"])
def test_malformed_collection_files_fail_cleanly(capsys, files, text):
    g = files("g.txt", format_graph_text(grid(2)))
    c = files("c.json", text)
    code, out, err = run(capsys, "universal", "eval", "--collection-file", c,
                         "--g", g)
    assert (code, out) == (1, "")
    assert "collection spec" in json.loads(err)["error"]


def test_universal_eval_requires_a_collection(capsys, files):
    g = files("g.txt", format_graph_text(grid(2)))
    assert run(capsys, "universal", "eval", "--g", g)[0] == USAGE_EXIT


def test_universal_approx(capsys, files):
    g = files("g.txt", format_graph_text(grid(4)))
    code, out, _ = run(capsys, "universal", "approx", "--certificate",
                       "treewidth", "--g", g, "--k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "ABOVE"
    assert data["bound"] == 2
    assert "above" in data["certified_sides"]
    assert data["scope"]
    # off forests the pathwidth certificate proves nothing: K_8 has value 2
    # and pathwidth 7
    g = files("k8.txt", format_graph_text(complete(8)))
    code, out, _ = run(capsys, "universal", "approx", "--certificate",
                       "pathwidth", "--g", g, "--k", "1")
    data = json.loads(out)
    assert (code, data["verdict"], data["certified_sides"]) == (0, "AT_MOST", [])


def test_universal_approx_rejects_a_negative_k(capsys, files):
    # the gaps are checked monotone only from 0: edge degree has gap(-3) = 10
    g = files("g.txt", format_graph_text(path(3)))
    for cert, k in (("edge_degree", "-3"), ("treewidth", "-5")):
        code, out, err = run(capsys, "universal", "approx", "--certificate",
                             cert, "--g", g, "--k", k)
        assert (code, out) == (USAGE_EXIT, "")
        assert f"needs --k >= 0, not {k}" in err


def test_universal_gap_tsv(capsys):
    code, out, _ = run(capsys, "universal", "gap", "--certificate",
                       "edge_degree", "--format", "tsv")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    header, rows = lines[0], lines[1:]
    cols = header.split("\t")
    assert "parameter" in cols and "collection_value" in cols
    pi, ci = cols.index("parameter"), cols.index("collection_value")
    assert len(rows) == 13
    for row in rows:
        cells = row.split("\t")
        assert int(cells[ci]) - int(cells[pi]) == 1


def test_universal_gap_defaults_to_the_certificate_corpus(capsys):
    for name, cert in CERTIFICATES.items():
        code, out, _ = run(capsys, "universal", "gap", "--certificate", name)
        assert code == 0
        data = json.loads(out)
        assert data["corpus"] == cert.corpus
        assert len(data["rows"]) == len(CORPORA[cert.corpus]())


def test_poset_rado_combined(capsys):
    code, out, _ = run(capsys, "poset", "rado", "--n", "5",
                       "--witness", "2", "5")
    assert code == 0
    data = json.loads(out)
    assert data["width"] == 5
    assert data["witness"] == {"m": 2, "n": 5, "incomparable": True}


@pytest.mark.parametrize("m, n", [("0", "1"), ("-3", "5"), ("4", "4")])
def test_poset_rado_witness_needs_a_nonempty_family(capsys, m, n):
    code, out, err = run(capsys, "poset", "rado", "--witness", m, n)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "need 1 <= m < n"}


@pytest.mark.parametrize("m, n", [("2", "201"), ("1000", "2000")])
def test_poset_rado_witness_is_capped(capsys, m, n):
    code, out, err = run(capsys, "poset", "rado", "--witness", m, n)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": f"poset too large ({n} > 200)"}


def test_poset_width_from_file(capsys, files):
    p = files("p.txt", "elem a\nelem b\nelem c\nle a b\nle a c\n")
    code, out, _ = run(capsys, "poset", "width", "--poset", p)
    assert code == 0
    assert json.loads(out)["width"] == 2
    code, out, _ = run(capsys, "poset", "chains", "--poset", p)
    assert json.loads(out)["chains"] in ([["a", "b"], ["c"]],
                                         [["a", "c"], ["b"]])


def test_oversized_posets_are_rejected_before_they_are_built(capsys, files):
    code, out, err = run(capsys, "poset", "rado", "--n", "40")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "poset too large (820 > 200)"}
    p = files("big.txt", "".join(f"elem e{i}\n" for i in range(201)))
    for action in ("width", "chains"):
        code, out, err = run(capsys, "poset", action, "--poset", p)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "poset too large (201 > 200)"}


def test_a_non_maximum_matching_exits_internal(capsys, files, monkeypatch):
    drop_one_matched_pair(monkeypatch)
    rado = rado_truncation(10)
    p = files("p.txt", format_poset_text(
        FinitePoset(tuple(f"{i}_{j}" for i, j in rado.labels), rado.le)))
    code, out, err = run(capsys, "poset", "width", "--poset", p)
    assert (code, out) == (INTERNAL_EXIT, "")
    assert "not maximum" in json.loads(err)["error"]


def test_poset_width_without_input_is_usage(capsys):
    assert run(capsys, "poset", "width")[0] == USAGE_EXIT


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "rado")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(c["status"] == "PASS" for c in data["checks"])


def test_identical_invocations_are_byte_identical(capsys, files):
    g = files("g.txt", format_graph_text(grid(3)))
    argv = ("param", "--kind", "pw", "--g", g)
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_module_entry_point_runs_as_subprocess():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import obskit
    # the child imports the same obskit as this process, installed or not
    src = str(Path(obskit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "obskit.cli", "poset", "rado", "--n", "3"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["width"] == 3


def _networkx_modules_after(code):
    """The networkx modules loaded after running `code` in a fresh process."""
    import os
    import subprocess
    import sys

    import obskit
    src = str(Path(obskit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; {code}; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'networkx'))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_loading_obskit_leaves_networkx_unloaded():
    # networkx costs the load path memory and time; only the tests use it
    assert _networkx_modules_after("import obskit.cli") == "[]"


def test_poset_width_and_chains_leave_networkx_unloaded():
    assert _networkx_modules_after(
        "from obskit.poset import chain_partition, poset_width, rado_truncation; "
        "p = rado_truncation(10); "
        "assert poset_width(p) == len(chain_partition(p)) == 10") == "[]"


def test_the_tree_corpus_leaves_networkx_unloaded():
    # width_survey builds trees9 in its set-up; trees come from tree_code
    assert _networkx_modules_after(
        "from obskit.universal import CORPORA; "
        "assert len(CORPORA['trees9']()) == 96") == "[]"


def test_poset_chains_do_not_depend_on_the_hash_seed(files):
    import os
    import random
    import subprocess
    import sys
    from pathlib import Path

    import obskit
    # 30 points of a grid under dominance: many maximum matchings to pick from
    rng = random.Random(11)
    pts = sorted({(rng.randrange(30), rng.randrange(30)) for _ in range(30)})
    p = files("p.txt", format_poset_text(FinitePoset(
        tuple(f"p{i}" for i in range(len(pts))),
        tuple(tuple(a[0] <= b[0] and a[1] <= b[1] for b in pts) for a in pts))))
    src = str(Path(obskit.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            q for q in (src, os.environ.get("PYTHONPATH")) if q)
        proc = subprocess.run(
            [sys.executable, "-m", "obskit.cli", "poset", "chains", "--poset", p],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def _run_script(tmp_path, script, *argv):
    """Run scripts/<script> from a plain checkout: no PYTHONPATH, cwd outside."""
    import os
    import subprocess
    import sys

    path = Path(__file__).resolve().parents[1] / "scripts" / script
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(path), *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", sorted(
    p.name for p in (Path(__file__).resolve().parents[1] / "scripts").glob("*.py")))
def test_scripts_run_from_a_plain_checkout(script, tmp_path):
    assert "usage" in _run_script(tmp_path, script, "--help")


def test_omnivore_walk_links_every_step_of_a_builtin_class(tmp_path):
    lines = _run_script(tmp_path, "omnivore_walk.py", "--class", "outerplanar",
                        "--steps", "4").splitlines()
    assert lines[0] == "class=outerplanar relation=minor steps=4"
    assert [ln.split()[-1] for ln in lines[2:]] == ["-", "True", "True", "True"]


def test_omnivore_walk_runs_a_builtin_class_at_its_fixture_multiplicity(tmp_path):
    # theta_like ships its obstructions at multiplicity 2, so the chain
    # reaches theta(2), the double edge, not K2
    lines = _run_script(tmp_path, "omnivore_walk.py", "--class", "theta_like",
                        "--steps", "3").splitlines()
    assert lines[0] == "class=theta_like relation=immersion steps=3"
    assert [ln.split()[1:] for ln in lines[2:]] == [
        ["1", "0", "-"], ["2", "2", "True"], ["2", "2", "True"]]


def test_omnivore_walk_links_every_step_of_a_class_spec_file(tmp_path):
    spec = tmp_path / "no_k4.txt"
    spec.write_text("relation minor\nmode simple\n\n" + format_graph_text(complete(4)))
    lines = _run_script(tmp_path, "omnivore_walk.py", "--class", str(spec),
                        "--steps", "4").splitlines()
    assert lines[0] == f"class={spec} relation=minor steps=4"
    assert [ln.split()[-1] for ln in lines[2:]] == ["-", "True", "True", "True"]


def _ab_pairs(monkeypatch):
    """scripts/ab_pairs.py as a module, with every benchmark run faked."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
    spec = importlib.util.spec_from_file_location("ab_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    runs = []
    bench = json.loads((path.parents[1] / "BENCHMARK.json").read_text())
    line = {"correct": True, "failed": 0,
            "metrics": {m["name"]: {"value": 1.0} for m in bench["end_to_end"]}}

    def run_once(tree, workload, seed):
        runs.append((workload, seed))
        return line

    monkeypatch.setattr(module, "run_once", run_once)
    return module, runs


@pytest.mark.parametrize("claim", [
    "width_survey", "no_such_workload:wall_s", "width_survey:no_such_metric",
    "width_survey:wall_s:extra", ":wall_s"])
def test_ab_pairs_rejects_a_bad_claim_before_any_run(claim, monkeypatch, tmp_path,
                                                     capsys):
    ab_pairs, runs = _ab_pairs(monkeypatch)
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "ab.json"
    with pytest.raises(SystemExit) as exc:
        ab_pairs.main(["--parent", str(root), "--change", str(root),
                       "--parent-commit", "abc", "--first-seed", "1",
                       "--pairs", "2", "--claim", claim, "--note", "n",
                       "--out", str(out)])
    assert exc.value.code == 2
    assert "--claim" in capsys.readouterr().err
    assert runs == [] and not out.exists()


def test_ab_pairs_records_a_missing_claim_as_null(monkeypatch, tmp_path, capsys):
    ab_pairs, runs = _ab_pairs(monkeypatch)
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "ab.json"
    base = ["--parent", str(root), "--change", str(root), "--parent-commit", "abc",
            "--first-seed", "1", "--pairs", "2", "--note", "n", "--out", str(out)]
    assert ab_pairs.main(base) == 0
    assert json.loads(out.read_text())["claim"] is None
    assert len(runs) == 3 * 2 * 2
    assert ab_pairs.main(base + ["--claim", "contain_stream:op_tail_ms"]) == 0
    assert json.loads(out.read_text())["claim"] == {
        "workload": "contain_stream", "metric": "op_tail_ms"}
