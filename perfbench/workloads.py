"""The three benchmark workloads.

Each is a closed loop with one client: the next operation starts when the
previous one returns.  A workload has a `setup(ob, seed)` that builds its
inputs and a `run_pass(ob, state, seed, index, wrap_predicate)` that runs
one fixed unit of work and checks every output.  `ob` is a namespace of
obskit modules; functions are looked up through it at call time so that the
tracer's wrappers are seen.  Inputs derive from the seed and the pass index
alone, so a pass can be replayed exactly.
"""
from __future__ import annotations

import json
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
from checks import RELATIONS

REFERENCE_FILE = Path(__file__).resolve().parent / "contain_reference.json"
#: the default seed, and the seed whose random-pair answers are stored
REFERENCE_SEED = 7


@dataclass
class Op:
    seconds: float
    ok: bool
    #: timed ops make up ops_per_s and the latency percentiles
    timed: bool = True


@dataclass
class PassResult:
    ops: list[Op] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(op.seconds for op in self.ops)


def _timed(fn, *args, **kwargs):
    """(result, seconds, error) for one call into obskit."""
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:   # an operation that raises is a failed operation
        return None, time.perf_counter() - t0, exc
    return result, time.perf_counter() - t0, None


def _describe(exc) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def random_connected(ob, rng, n: int, m: int):
    """A connected simple graph on n vertices with m edges: a random
    attachment tree plus random extra edges, randomly relabelled."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    perm = list(range(n))
    rng.shuffle(perm)
    return ob.multigraph.MultiGraph.build(
        n, [(perm[u], perm[v]) for u, v in sorted(edges)])


def _connected(g) -> bool:
    if g.n == 0:
        return False
    seen, stack = {0}, [0]
    while stack:
        for w in g.adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


# -- obs_scan -------------------------------------------------------------------
#
# Recomputes every shipped obstruction fixture at its FIXTURE_BOUNDS (the
# `obskit verify --suite section6` job).  Enumeration and canonical forms do
# nearly all the work; no width parameter is computed.  One pass is longer
# than a run, and a second pass in the same process would measure whatever
# an in-process memo kept from the first, so the pass runs once per run.

class ObsScan:
    name = "obs_scan"
    repeat = False

    @staticmethod
    def setup(ob, seed):
        classes = []
        for cls, (n_max, mult_max) in ob.verify.FIXTURE_BOUNDS.items():
            want = ob.obstructions.fixture_graphs(f"obstructions_{cls}.txt")
            classes.append((cls, n_max, mult_max, checks.key_multiset(want)))
        return classes

    @staticmethod
    def run_pass(ob, classes, seed, index, wrap_predicate=None):
        out = PassResult()
        for cls, n_max, mult_max, want in classes:
            relation, predicate = ob.obstructions.BUILTIN_CLASSES[cls]
            if wrap_predicate is not None:
                predicate = wrap_predicate(predicate)
            report, dt, err = _timed(ob.obstructions.compute_obstructions,
                                     relation, predicate, n_max, mult_max,
                                     class_desc=cls)
            ok = err is None and checks.same_graph_set(report.obstructions, want)
            if not ok:
                out.problems.append(f"{cls}: " + (_describe(err) if err else
                                                  "differs from the fixture"))
            out.ops.append(Op(dt, ok))
        return out


# -- contain_stream ---------------------------------------------------------------
#
# A stream of contains() queries under all four relations, each under a fixed
# budget.  Random pairs put connected patterns of minimum degree 2 into sparse
# connected hosts, stratified so every pass has the same mix of host order
# and surplus edges; negative minor and immersion answers on the denser hosts
# make the heavy tail.  Family-member pairs ride along in every pass.
# Enumeration happens only in setup, and no width parameter is computed.

BUDGET_MS = 10_000
HOST_ORDERS = (8, 9)
#: edges beyond a spanning tree.  From four on, single negative minor and
#: immersion queries take seconds, so a handful of them set a run's
#: throughput and tail and the figures scatter from seed to seed.
HOST_SURPLUS = (1, 2, 3)
PAIRS_PER_STRATUM = 7

#: shapes by name: a registered family member, or a families constructor
SHAPES = {
    "K23": ("complete_bipartite", (2, 3)),
    "fan5": ("fan", (5,)), "fan6": ("fan", (6,)),
    "K4": ("complete", 4), "K5": ("complete", 5),
    "C4": ("grid", 2), "grid3": ("grid", 3),
    "tt1": ("ternary_tree", 1), "tt2": ("ternary_tree", 2),
    "tta2": ("ternary_tree_apex", 2), "tad2": ("ternary_tree_apex_dual", 2),
    "theta3": ("theta", 3), "star4": ("star", 4), "path6": ("path", 6),
}
#: fan6 < tta2 is the slowest query of a pass (about 0.2 s, immersion), so
#: the tail of a run sits on a query every pass repeats, not on the few
#: random queries that happen to be slower
FAMILY_PATTERNS = ("K23", "K4", "C4", "tt1", "theta3", "star4", "fan5", "fan6",
                   "path6")
FAMILY_HOSTS = ("grid3", "tt2", "tta2", "tad2", "K5")
#: left out of the stream: without a budget the minor query runs about 20 s
#: (the topological-minor query is as slow), so under any workable budget it
#: would fail every pass.  The traced run measures it as the budget probe.
BUDGET_PROBE = ("K23", "tad2")
PROBE_BUDGET_MS = 1000


def shape(ob, name):
    kind, arg = SHAPES[name]
    if isinstance(arg, tuple):
        return getattr(ob.families, kind)(*arg)
    return ob.families.FAMILIES[kind].member(arg)


def family_pairs():
    return [(p, h) for h in FAMILY_HOSTS for p in FAMILY_PATTERNS
            if (p, h) != BUDGET_PROBE and p != h]


def stream_patterns(ob):
    """Connected graphs on 4 to 6 vertices with minimum degree 2."""
    return [g for g in ob.multigraph.enumerate_graphs(6, 1)
            if g.n >= 4 and min(g.degrees) >= 2 and _connected(g)]


def stream_pairs(ob, patterns, seed, index):
    """The pass's (label, pattern, host) triples in query order."""
    rng = random.Random(seed * 1_000_003 + index)
    pairs = [(f"{p}<{h}", shape(ob, p), shape(ob, h)) for p, h in family_pairs()]
    k = 0
    for n in HOST_ORDERS:
        for surplus in HOST_SURPLUS:
            for _ in range(PAIRS_PER_STRATUM):
                host = random_connected(ob, rng, n, n - 1 + surplus)
                pairs.append((f"r{k}", rng.choice(patterns), host))
                k += 1
    rng.shuffle(pairs)
    return pairs


def answer_string(answers: dict) -> str:
    return "".join("T" if answers[r] else "F" for r in RELATIONS)


class ContainStream:
    name = "contain_stream"
    repeat = True

    @staticmethod
    def setup(ob, seed):
        return stream_patterns(ob), json.loads(REFERENCE_FILE.read_text())

    @staticmethod
    def run_pass(ob, state, seed, index, wrap_predicate=None):
        patterns, reference = state
        expected = dict(reference["family"])
        if seed == reference["seed"] and index < len(reference["passes"]):
            expected.update((f"r{k}", a) for k, a in
                            enumerate(reference["passes"][index].split()))
        out = PassResult()
        for label, h, g in stream_pairs(ob, patterns, seed, index):
            answers, ops = {}, []
            for rel in RELATIONS:
                result, dt, err = _timed(ob.relations.contains, rel, h, g,
                                         budget_ms=BUDGET_MS)
                ops.append(Op(dt, err is None))
                if err is not None:
                    out.problems.append(f"{label} {rel}: {_describe(err)}")
                else:
                    answers[rel] = result
            bad = checks.lattice_violations(answers)
            want = expected.get(label)
            if len(answers) == len(RELATIONS) and want not in (None, answer_string(answers)):
                bad.append(f"answers {answer_string(answers)}, reference {want}")
            if bad:
                out.problems.append(f"{label}: " + "; ".join(bad))
                for op in ops:
                    op.ok = False
            out.ops.extend(ops)
        return out

    @staticmethod
    def budget_probe(ob):
        """The pinned negative minor query under a short budget.  Raising the
        budget error or answering False are both correct; how late the error
        comes is the measurement, which the tracer's contains wrapper takes."""
        h, g = shape(ob, BUDGET_PROBE[0]), shape(ob, BUDGET_PROBE[1])
        result, dt, err = _timed(ob.relations.contains, "minor", h, g,
                                 budget_ms=PROBE_BUDGET_MS)
        ok = (isinstance(err, ob.multigraph.BudgetExceededError)
              or (err is None and result is False))
        return Op(dt, ok, timed=False)


# -- width_survey ---------------------------------------------------------------------
#
# The 2^n layout DPs on random connected graphs of 9 to 13 vertices (an
# equal number at each order in every pass), plus the gap reports of the
# three shipped certificates on their default corpora and approximate()
# verdicts on corpus graphs.  The grid collection stays on the 7-vertex
# corpus: on random hosts of 9 or more vertices its scans end in negative
# minor queries costing tens of seconds each, which contain_stream already
# measures.

GRAPH_ORDERS = range(9, 14)
GRAPHS_PER_ORDER = 5
APPROX_PER_CERTIFICATE = 4
CERTIFICATE_CORPORA = (("treewidth", "simple7"), ("pathwidth", "trees9"),
                       ("edge_degree", "theta_star"))


def _gap_problems(name, report) -> list[str]:
    """The bounds `obskit verify --suite gaps` asserts, per certificate."""
    rows = report.rows
    if name == "edge_degree":
        bad = [r for r in rows if r.collection - r.parameter != 1]
    elif name == "treewidth":
        bad = [r for r in rows if r.collection > r.parameter + 1]
    else:
        table = {0: 1, 1: 2, 2: 2}
        bad = [k for k, v in report.envelope_by_parameter if v > table.get(k, k + 1)]
    return [f"gap {name}: {len(bad)} rows break the bound"] if bad else []


def _width_problems(g, tw, tw2, pw, cw, bpw) -> list[str]:
    bad = []
    if tw[0] != tw2:
        bad.append(f"treewidth {tw[0]} but elimination {tw2}")
    for what, (value, layout), cost in (
            ("treewidth", tw, checks.treewidth_layout_cost),
            ("pathwidth", pw, checks.pathwidth_layout_cost),
            ("cutwidth", cw, checks.cutwidth_layout_cost)):
        real = cost(g, list(layout.order))
        if real != value:
            bad.append(f"{what} {value} but its layout costs {real}")
    if not tw[0] <= pw[0] <= cw[0] or bpw > pw[0]:
        bad.append(f"order broken: tw {tw[0]} pw {pw[0]} cw {cw[0]} bi_pw {bpw}")
    return bad


class WidthSurvey:
    name = "width_survey"
    repeat = True

    @staticmethod
    def setup(ob, seed):
        uni = ob.universal
        return {"simple7": list(ob.multigraph.enumerate_graphs(7, 1)),
                "trees9": uni.tree_corpus(9),
                "theta_star": uni.theta_star_corpus()}

    @staticmethod
    def run_pass(ob, corpora, seed, index, wrap_predicate=None):
        P, U = ob.parameters, ob.universal
        rng = random.Random(seed * 1_000_003 + index)
        graphs = [random_connected(ob, rng, n, rng.randint(n, 2 * n))
                  for n in GRAPH_ORDERS for _ in range(GRAPHS_PER_ORDER)]
        rng.shuffle(graphs)
        out = PassResult()

        def solve(g):
            return (P.treewidth(g), P.treewidth_by_elimination(g),
                    P.pathwidth(g), P.cutwidth(g), P.bi_pathwidth(g))

        for g in graphs:
            values, dt, err = _timed(solve, g)
            bad = [_describe(err)] if err else _width_problems(g, *values)
            out.problems.extend(f"{g.n}-vertex graph: {b}" for b in bad)
            out.ops.append(Op(dt, not bad))

        for name, corpus in CERTIFICATE_CORPORA:
            cert = U.CERTIFICATES[name]
            report, dt, err = _timed(U.gap_report, cert.kind, cert.collection,
                                     corpora[corpus])
            bad = [_describe(err)] if err else _gap_problems(name, report)
            if not err and len(report.rows) != len(corpora[corpus]):
                bad.append(f"gap {name}: {len(report.rows)} rows")
            out.problems.extend(bad)
            out.ops.append(Op(dt, not bad, timed=False))
            if err:
                continue
            for row in rng.sample(report.rows, APPROX_PER_CERTIFICATE):
                k = rng.randrange(4)
                verdict, dt, err = _timed(U.approximate, cert.collection,
                                          cert.gap, row.graph, k)
                ok = err is None and verdict.collection_value == row.collection and (
                    (verdict.kind == "ABOVE" and ("above" not in cert.sides
                                                  or row.parameter > k))
                    or (verdict.kind == "AT_MOST" and ("at_most" not in cert.sides
                                                       or row.parameter <= verdict.bound)))
                if not ok:
                    out.problems.append(f"approximate {name} k={k}: "
                                        + (_describe(err) if err else str(verdict)))
                out.ops.append(Op(dt, ok, timed=False))
        return out


WORKLOADS = {w.name: w for w in (ObsScan, ContainStream, WidthSurvey)}
