"""Tests of the benchmark's own arithmetic and correctness gates.

    python3 -m pytest perfbench/tests -q
"""
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
from obskit import parameters  # noqa: E402
from obskit.multigraph import MultiGraph, delete_edge  # noqa: E402
from obskit.obstructions import fixture_graphs  # noqa: E402
from obskit.verify import FIXTURE_BOUNDS  # noqa: E402


# -- tail percentile rule --------------------------------------------------------

def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    pct, value, beyond = checks.tail(samples)
    assert (pct, value, beyond) == (90.0, 90, 10)
    assert sum(1 for x in samples if x > value) == 10


def test_tail_with_eleven_samples_is_the_minimum():
    pct, value, beyond = checks.tail([5.0] + [9.0] * 10)
    assert (value, beyond) == (5.0, 10)
    assert pct == pytest.approx(100 / 11)


@pytest.mark.parametrize("n", [1, 6, 10])
def test_tail_without_ten_beyond_reports_the_maximum(n):
    assert checks.tail(range(n)) == (100.0, n - 1, 0)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        checks.tail([])


# -- self time on nested spans -----------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert spans.self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_spans_nest_through_wrapped_calls(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans, "_clock", lambda: float(next(ticks)))
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: None, "mod.inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "mod.outer")
    outer()
    # outer [0, 5] with inner [1, 2] and [3, 4]
    assert list(tracer.parent) == [-1, 0, 0]
    assert spans.self_times(tracer.parent, tracer.start, tracer.end) == [3.0, 1.0, 1.0]


def test_traced_generator_charges_each_step_to_its_consumer(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans, "_clock", lambda: float(next(ticks)))
    tracer = spans.Tracer()
    gen = tracer.wrap(lambda: (yield from (1, 2)), "mod.gen")
    consume = tracer.wrap(lambda: list(gen()), "mod.consume")
    assert consume() == [1, 2]
    names = [tracer.names[i] for i in tracer.name_of]
    assert names == ["mod.consume", "mod.gen", "mod.gen", "mod.gen"]
    assert list(tracer.parent) == [-1, 0, 0, 0]


# -- canonical fixture comparison -----------------------------------------------------

def relabel(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return MultiGraph.build(g.n, [(perm[u], perm[v], m) for u, v, m in g.edges])


@pytest.mark.parametrize("cls", sorted(FIXTURE_BOUNDS))
def test_relabelled_fixture_matches(cls):
    graphs = fixture_graphs(f"obstructions_{cls}.txt")
    want = checks.key_multiset(graphs)
    copies = [relabel(g, seed) for seed, g in enumerate(graphs)]
    assert checks.same_graph_set(list(reversed(copies)), want)


def test_relabelling_changes_edge_lists_but_not_the_verdict():
    graphs = fixture_graphs("obstructions_apex_forest.txt")
    copies = [relabel(g, 1) for g in graphs]
    # the labelled edge lists verify.py compares no longer match
    assert sorted(c.edges for c in copies) != sorted(g.edges for g in graphs)
    assert checks.same_graph_set(copies, checks.key_multiset(graphs))


@pytest.mark.parametrize("cls", sorted(FIXTURE_BOUNDS))
def test_fixture_with_one_graph_swapped_is_flagged(cls):
    graphs = fixture_graphs(f"obstructions_{cls}.txt")
    want = checks.key_multiset(graphs)
    first = graphs[0]
    if first.edges:
        u, v, _ = first.edges[0]
        other = delete_edge(first, u, v)
    else:
        other = MultiGraph.build(first.n, [(0, 1, 1)])
    swapped = [other] + graphs[1:]
    assert not checks.same_graph_set(swapped, want)
    assert not checks.same_graph_set(graphs + [graphs[0]], want)
    assert not checks.same_graph_set(graphs[1:], want)


def test_canonical_key_separates_multiplicities():
    single = MultiGraph.build(2, [(0, 1, 1)])
    double = MultiGraph.build(2, [(0, 1, 2)])
    assert checks.canonical_key(single) != checks.canonical_key(double)


# -- the other gates ------------------------------------------------------------------

def test_lattice_violations():
    assert checks.lattice_violations(
        {"subgraph": True, "topological_minor": True, "minor": True,
         "immersion": True}) == []
    assert checks.lattice_violations(
        {"subgraph": True, "topological_minor": True, "minor": False,
         "immersion": False}) == ["topological_minor without minor",
                                  "subgraph without immersion"]
    assert checks.lattice_violations({"subgraph": True}) == []


@pytest.mark.parametrize("seed", range(5))
def test_layout_costs_agree_with_the_library_checkers(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(2 * n)}
    g = MultiGraph.build(n, sorted(edges))
    order = list(range(n))
    rng.shuffle(order)
    layout = parameters.Layout(tuple(order))
    assert checks.treewidth_layout_cost(g, order) == parameters.layout_treewidth_cost(g, layout)
    assert checks.pathwidth_layout_cost(g, order) == parameters.layout_pathwidth_cost(g, layout)
    assert checks.cutwidth_layout_cost(g, order) == parameters.layout_cutwidth_cost(g, layout)


# -- BENCHMARK.json against the code ------------------------------------------------

ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_metrics_the_code_prints():
    import run
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = {k: unit for k, (_, unit) in spans.Tracer().per_layer().items()}
    layer.update(run.TRACE_EXTRA)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_benchmark_json_keeps_its_format():
    spec = benchmark_json()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in spec[key])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "obs_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_kept_ratio_counts_every_attachment_as_an_attempt():
    tracer = spans.Tracer()
    tracer.layer_classes.update({(1, 1): 1, (2, 1): 2, (3, 1): 4, (1, 2): 1, (2, 2): 3})
    layer = tracer.per_layer()
    assert "multigraph.layer_kept_ratio.n2m2" not in layer   # always 1
    assert layer["multigraph.layer_kept_ratio.n3m1"][0] == 4 / (2 * 2 ** 2)
    assert layer["multigraph.layer_kept_ratio.n3m2"][0] == 0.0
    assert layer["multigraph.layer_kept_ratio.n4m1"][0] == 0.0
