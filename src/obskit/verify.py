"""Named verification suites: recompute shipped results and diff them.

Failures are report content, not exceptions; the CLI maps any FAIL to exit
code 2.  Check order inside a suite is fixed so identical invocations
produce identical output.
"""
from __future__ import annotations

from .families import FAMILIES, growth_size, verify_family_step
from .multigraph import canonical_form, enumerate_graphs
from .obstructions import BUILTIN_CLASSES, compute_obstructions, fixture_graphs
from .parameters import treewidth, treewidth_by_elimination
from .relations import Relation, contains
from .universal import (CERTIFICATES, COLLECTIONS, CORPORA, gap_report,
                        mixed_corpus, p_of_collection)
from .poset import rado_star_antichain_witness, rado_truncation, poset_width

#: bounds at which each shipped obstruction fixture was computed
FIXTURE_BOUNDS = {
    "forests": (6, 1),
    "outerplanar": (6, 1),
    "apex_forest": (7, 1),
    "subcubic_forest": (5, 2),
    "star_or_edgeless": (6, 2),
    "theta_like": (5, 2),
}


def _check(name, ok, detail=""):
    return {"name": name, "status": "PASS" if ok else "FAIL", "detail": detail}


def _same_graphs(a, b) -> bool:
    """True when a and b hold the same graphs up to isomorphism, repeats
    counted; vertex labels play no part."""
    return (sorted(map(canonical_form, a))
            == sorted(map(canonical_form, b)))


def suite_section6():
    checks = []
    for cls, (n_max, mult_max) in FIXTURE_BOUNDS.items():
        relation, predicate = BUILTIN_CLASSES[cls]
        report = compute_obstructions(relation, predicate, n_max,
                                      mult_max, class_desc=cls)
        want = fixture_graphs(f"obstructions_{cls}.txt")
        checks.append(_check(
            f"obstructions:{cls}", _same_graphs(report.obstructions, want),
            f"computed {len(report.obstructions)} at n<={n_max} "
            f"mult<={mult_max}; fixture {len(want)}"))
    return checks


def suite_invariants():
    checks = []

    ok = True
    detail = ""
    corpus = mixed_corpus(200)
    try:
        for coll in COLLECTIONS.values():
            for g in corpus:
                p_of_collection(coll, g)
    except AssertionError as exc:   # the max/min forms disagreed
        ok, detail = False, str(exc)
    checks.append(_check("collection-formulas-agree",
                         ok, detail or "200 graphs x 4 collections"))

    pairs = list(enumerate_graphs(4, 2))
    bad = 0
    total = 0
    for h in pairs:
        for g in pairs:
            sub = contains(Relation.SUBGRAPH, h, g)
            tm = contains(Relation.TOPOLOGICAL_MINOR, h, g)
            mi = contains(Relation.MINOR, h, g)
            im = contains(Relation.IMMERSION, h, g)
            total += 1
            if (sub and not tm) or (tm and not mi) or (sub and not im):
                bad += 1
    checks.append(_check("containment-lattice",
                         bad == 0, f"{total} ordered pairs, {bad} violations"))

    mismatch = 0
    count = 0
    for g in enumerate_graphs(6, 1):
        count += 1
        if treewidth(g)[0] != treewidth_by_elimination(g):
            mismatch += 1
    checks.append(_check("treewidth-dual-solvers",
                         mismatch == 0, f"{count} graphs, {mismatch} mismatches"))

    failed = []
    for name, fam in sorted(FAMILIES.items()):
        if fam.step_witness is None:
            continue
        for k in range(fam.base_index, fam.base_index + 3):
            if not verify_family_step(fam, k):
                failed.append(f"{name}@{k}")
    checks.append(_check("family-step-witnesses",
                         not failed, ",".join(failed) or "3 steps per family"))

    non_growing = [name for name, fam in sorted(FAMILIES.items())
                   if not all(growth_size(fam.member(k)) <
                              growth_size(fam.member(k + 1))
                              for k in range(fam.base_index,
                                             fam.base_index + 4))]
    checks.append(_check("family-size-growth",
                         not non_growing, ",".join(non_growing) or "ok"))
    return checks


def suite_rado():
    checks = []
    axiom_fail = []
    for n in range(2, 9):
        try:
            rado_truncation(n)
        except ValueError as exc:
            axiom_fail.append(f"n={n}: {exc}")
    checks.append(_check("rado-axioms",
                         not axiom_fail, ",".join(axiom_fail) or "n<=8"))

    w = poset_width(rado_truncation(5))
    checks.append(_check("rado-truncation5-width", w == 5, f"width={w}"))

    bad = [(m, n) for m in range(2, 12) for n in range(m + 2, 13)
           if not rado_star_antichain_witness(m, n)]
    checks.append(_check("rado-antichain-witness",
                         not bad, f"{len(bad)} failing (m,n)" if bad else
                         "2<=m<n<=12, n>=m+2"))
    checks.append(_check("rado-witness-boundary",
                         rado_star_antichain_witness(2, 3),
                         "recorded boundary case (2,3)"))
    return checks


def suite_gaps():
    """Check each shipped certificate's gap function on its corpus."""
    checks = []

    # a fact about theta_star, not a consequence of the k^2 + 1 gap
    cert = CERTIFICATES["edge_degree"]
    rep = gap_report(cert.kind, cert.collection, CORPORA[cert.corpus]())
    off = [r for r in rep.rows if r.collection != r.parameter + 1]
    checks.append(_check("edge-degree-gap-exactly-1",
                         not off, f"{len(rep.rows)} graphs of {cert.corpus}"))

    cert = CERTIFICATES["treewidth"]
    rep = gap_report(cert.kind, cert.collection, CORPORA[cert.corpus]())
    over = [r for r in rep.rows if r.collection > cert.gap(r.parameter)]
    checks.append(_check("grid-value-at-most-treewidth-plus-1",
                         not over, f"{len(rep.rows)} graphs of {cert.corpus} "
                         f"to {max(r.graph.n for r in rep.rows)} vertices"))

    cert = CERTIFICATES["pathwidth"]
    rep = gap_report(cert.kind, cert.collection, CORPORA[cert.corpus]())
    over = [(k, v) for k, v in rep.envelope_by_parameter if v > cert.gap(k)]
    checks.append(_check("pathwidth-tabulated-gap-envelope",
                         not over, f"{len(rep.rows)} graphs of {cert.corpus}; "
                         f"envelope {dict(rep.envelope_by_parameter)}"))
    return checks


SUITES = {"section6": suite_section6, "invariants": suite_invariants,
          "rado": suite_rado, "gaps": suite_gaps}


def verify_suite(name: str):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
    checks = SUITES[name]()
    return {"suite": name,
            "checks": checks,
            "passed": all(c["status"] == "PASS" for c in checks)}
