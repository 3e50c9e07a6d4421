import json

import pytest

from conftest import drop_one_matched_pair
from obskit.cli import INTERNAL_EXIT, USAGE_EXIT, main
from obskit.families import grid, star
from obskit.multigraph import format_graph_text, from_graph6, to_graph6
from obskit.poset import FinitePoset, format_poset_text, rado_truncation


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


def test_contain_reads_graph6(capsys, files):
    h = files("h.g6", to_graph6(star(3)) + "\n")
    g = files("g.g6", to_graph6(grid(2)) + "\n")
    code, out, _ = run(capsys, "contain", "--relation", "sub",
                       "--h", h, "--g", g)
    assert code == 0
    assert json.loads(out)["contains"] is False


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


def test_gen_below_base_index_fails_cleanly(capsys):
    code, _, err = run(capsys, "gen", "--family", "grid", "--k", "1")
    assert code == 1 and "error" in err


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


def test_obs_beyond_the_size_cap_fails_cleanly(capsys):
    code, out, err = run(capsys, "obs", "--class", "forests", "--nmax", "9")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "enumeration to 9 vertices at mult_max=1 exceeds the budget"}


def test_obs_unknown_class_fails_cleanly(capsys):
    code, _, err = run(capsys, "obs", "--class", "chordal")
    assert code == 1 and "unknown class" in err


def test_universal_eval(capsys, files):
    g = files("g.txt", format_graph_text(grid(3)))
    code, out, _ = run(capsys, "universal", "eval", "--collection", "grids",
                       "--g", g)
    assert code == 0
    assert json.loads(out)["value"] == 4


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


def test_poset_rado_combined(capsys):
    code, out, _ = run(capsys, "poset", "rado", "--n", "5",
                       "--witness", "2", "5")
    assert code == 0
    data = json.loads(out)
    assert data["width"] == 5
    assert data["witness"] == {"m": 2, "n": 5, "incomparable": True}


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


@pytest.mark.parametrize("script", ["gap_survey.py", "make_fixtures.py",
                                    "obstruction_report.py", "omnivore_walk.py"])
def test_scripts_run_from_a_plain_checkout(script, tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / script
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(path), "--help"], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout
