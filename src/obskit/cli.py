"""Command-line surface.

Every invocation echoes its effective configuration (bounds, relation
mode, conventions) so saved outputs are self-describing.  JSON by default,
TSV for tables; identical invocations produce byte-identical output.

Exit codes: 0 success, 1 domain error (bad input, budget), 2 verification
failure, 64 usage error, 70 internal invariant failure.  Usage errors
include unknown certificate, collection, corpus, class and suite names, and
any flag that the chosen action does not read: `universal` and `poset` take
one parser per action, and flags follow the action word.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .families import GRID_FAMILY, family_by_name
from .multigraph import (BudgetExceededError, MultiGraph, format_graph_text,
                         from_graph6, parse_graph_text)
from .obstructions import BUILTIN_CLASSES, compute_obstructions
from .parameters import parse_kind, z_apex
from .poset import (chain_partition, parse_poset_text, poset_width,
                    rado_star_antichain_witness, rado_truncation)
from .relations import Mode, Relation, contains, default_mode, parse_relation
from .universal import (CERTIFICATES, COLLECTIONS, CORPORA, approximate,
                        gap_report, p_of_collection, parse_collection_spec)
from .verify import SUITES, verify_suite

USAGE_EXIT = 64
INTERNAL_EXIT = 70

CONVENTIONS = {
    **{f"{rel.value}_default_mode": default_mode(rel).value for rel in Relation},
    "cutwidth_counts_multiplicities": True,
    "bi_pathwidth_block_rule": "max",
    "grid_base_index": GRID_FAMILY.base_index,
    "enumeration_order": "vertices, edge units, canonical form",
}


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        # leftovers are reported by the parser they followed, with its usage
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"error: {message}\n")


def read_graph_file(path: str) -> MultiGraph:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    body = [ln for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]
    if not body:
        raise ValueError(f"no graph data in {path!r}")
    if body[0].split()[0] == "n":
        return parse_graph_text(text)
    if len(body) > 1:
        raise ValueError(f"more than one graph6 line in {path!r}")
    return from_graph6(body[0].strip())


def _config(args, **extra):
    cfg = {"conventions": CONVENTIONS}
    if hasattr(args, "budget_ms"):
        cfg["budget_ms"] = args.budget_ms
    cfg.update({k: v for k, v in extra.items() if v is not None})
    return cfg


def _emit(args, payload, tsv_rows=None):
    """JSON by default; tsv_rows is a (header, rows) pair for --format tsv."""
    if args.format == "tsv" and tsv_rows is not None:
        header, rows = tsv_rows
        for key, val in sorted(payload.get("config", {}).items()):
            if key != "conventions":
                print(f"# {key}={val}")
        print("\t".join(header))
        for row in rows:
            print("\t".join(str(c) for c in row))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))


def cmd_contain(args) -> int:
    rel = parse_relation(args.relation)
    h = read_graph_file(args.h)
    g = read_graph_file(args.g)
    mode = Mode(args.mode) if args.mode else default_mode(rel)
    result = contains(rel, h, g, mode=mode, budget_ms=args.budget_ms)
    payload = {
        "contains": result,
        "config": _config(args, relation=rel.value, mode=mode.value,
                          pattern_vertices=h.n, host_vertices=g.n),
    }
    _emit(args, payload, (("contains",), ((result,),)))
    return 0


def cmd_param(args) -> int:
    g = read_graph_file(args.g)
    kind = parse_kind(args.kind, [read_graph_file(p) for p in args.z])
    if args.z and not kind.z_list:
        raise ValueError("--z is read only by --kind z_apex")
    payload = {
        "kind": kind.tag,
        "config": _config(args, monotone_relation=kind.monotone_relation.value),
    }
    if kind.z_list:
        value, witness = z_apex(g, kind.z_list)
        payload["witness"] = list(witness)
    else:
        value = kind.solve(g)
    payload["value"] = value
    _emit(args, payload, (("kind", "value"), ((kind.tag, value),)))
    return 0


def cmd_obs(args) -> int:
    relation, predicate = BUILTIN_CLASSES[args.cls]
    report = compute_obstructions(relation, predicate, args.nmax, args.multmax,
                                  class_desc=args.cls)
    texts = [format_graph_text(g).rstrip("\n") for g in report.obstructions]
    payload = {
        "class": args.cls,
        "relation": report.relation.value,
        "count": len(texts),
        "obstructions": texts,
        "note": report.note,
        "config": _config(args, relation=report.relation.value,
                          mode=report.mode.value, nmax=args.nmax,
                          multmax=args.multmax),
    }
    rows = [(g.n, g.total_units, t.replace("\n", "; "))
            for g, t in zip(report.obstructions, texts)]
    _emit(args, payload, (("vertices", "edge_units", "graph"), rows))
    return 0


def cmd_gen(args) -> int:
    fam = family_by_name(args.family)
    g = fam.member(args.k)
    text = format_graph_text(g)
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
        _emit(args, {"written": args.out, "vertices": g.n,
                     "config": _config(args, family=fam.name, k=args.k)})
    return 0


def cmd_universal(args) -> int:
    if args.action == "eval":
        coll = _load_collection(args)
        g = read_graph_file(args.g)
        value = p_of_collection(coll, g)
        payload = {"collection": coll.name, "value": value,
                   "config": _config(args, relation=coll.relation.value)}
        _emit(args, payload, (("collection", "value"), ((coll.name, value),)))
        return 0
    if args.action == "approx":
        cert = CERTIFICATES[args.certificate]
        g = read_graph_file(args.g)
        verdict = approximate(cert.collection, cert.gap, g, args.k)
        payload = {
            "certificate": args.certificate,
            "kind": cert.kind.tag,
            "k": args.k,
            "verdict": verdict.kind,
            "bound": verdict.bound,
            "collection_value": verdict.collection_value,
            "certified_sides": cert.certified_sides(g),
            "scope": cert.scope,
            "config": _config(args, relation=cert.collection.relation.value),
        }
        _emit(args, payload, (("verdict", "bound"),
                              ((verdict.kind, verdict.bound),)))
        return 0
    # gap
    cert = CERTIFICATES[args.certificate]
    corpus = args.corpus or cert.corpus
    rep = gap_report(cert.kind, cert.collection, CORPORA[corpus]())
    rows = [(r.graph.n, r.graph.total_units, r.parameter, r.collection)
            for r in rep.rows]
    payload = {
        "certificate": args.certificate,
        "kind": cert.kind.tag,
        "collection": rep.collection,
        "corpus": corpus,
        "rows": [{"vertices": a, "edge_units": b, "parameter": p,
                  "collection_value": c} for a, b, p, c in rows],
        "envelope_by_parameter": dict(rep.envelope_by_parameter),
        "envelope_by_collection": dict(rep.envelope_by_collection),
        "config": _config(args, relation=cert.collection.relation.value),
    }
    _emit(args, payload,
          (("vertices", "edge_units", "parameter", "collection_value"), rows))
    return 0


def _load_collection(args):
    if args.collection_file:
        with open(args.collection_file) as fh:
            return parse_collection_spec(fh.read())
    return COLLECTIONS[args.collection]


def cmd_poset(args) -> int:
    if args.action == "rado":
        payload = {"config": _config(args)}
        rows = []
        if args.n is not None:
            p = rado_truncation(args.n)
            w = poset_width(p)
            payload.update({"n": args.n, "elements": len(p), "width": w})
            rows.append(("width", w))
        if args.witness:
            m, n = args.witness
            ok = rado_star_antichain_witness(m, n)
            payload["witness"] = {"m": m, "n": n, "incomparable": ok}
            rows.append(("witness", ok))
        if args.n is None and not args.witness:
            raise ValueError("poset rado needs --n and/or --witness M N")
        _emit(args, payload, (("item", "value"), rows))
        return 0
    with open(args.poset) as fh:
        p = parse_poset_text(fh.read())
    if args.action == "width":
        w = poset_width(p)
        payload = {"width": w, "elements": len(p), "config": _config(args)}
        _emit(args, payload, (("width",), ((w,),)))
        return 0
    chains = chain_partition(p)
    payload = {"width": len(chains),
               "chains": [list(map(str, c)) for c in chains],
               "config": _config(args)}
    _emit(args, payload, (("chain",), [(" ".join(map(str, c)),) for c in chains]))
    return 0


def cmd_verify(args) -> int:
    report = verify_suite(args.suite)
    report["config"] = _config(args)
    rows = [(c["name"], c["status"], c["detail"]) for c in report["checks"]]
    _emit(args, report, (("check", "status", "detail"), rows))
    return 0 if report["passed"] else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="obskit", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"), default="json")

    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("contain", parents=[common],
                       help="does the host contain the pattern?")
    p.add_argument("--relation", required=True)
    p.add_argument("--h", required=True, metavar="PATTERN_FILE")
    p.add_argument("--g", required=True, metavar="HOST_FILE")
    p.add_argument("--mode", choices=("simple", "multi"), default=None)
    # argparse converts a string default with `type`, so a malformed
    # environment value is a usage error of this command alone
    p.add_argument("--budget-ms", type=float,
                   default=os.environ.get("OBSKIT_BUDGET_MS") or None)
    p.set_defaults(func=cmd_contain)

    p = sub.add_parser("param", parents=[common], help="exact parameter value")
    p.add_argument("--kind", default="treewidth")
    p.add_argument("--g", required=True)
    p.add_argument("--z", action="append", default=[],
                   metavar="FORBIDDEN_MINOR_FILE")
    p.set_defaults(func=cmd_param)

    p = sub.add_parser("obs", parents=[common],
                       help="obstruction set of a built-in class")
    p.add_argument("--class", dest="cls", required=True,
                   choices=BUILTIN_CLASSES)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--multmax", type=int, default=1)
    p.set_defaults(func=cmd_obs)

    p = sub.add_parser("gen", parents=[common], help="emit a family member")
    p.add_argument("--family", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    def natural(text):
        k = int(text)
        if k < 0:
            raise argparse.ArgumentTypeError(f"needs --k >= 0, not {k}")
        return k

    p = sub.add_parser("universal",
                       help="collection values, certificates, gap tables")
    acts = p.add_subparsers(dest="action", required=True)
    a = acts.add_parser("eval", parents=[common])
    src = a.add_mutually_exclusive_group(required=True)
    src.add_argument("--collection", choices=COLLECTIONS)
    src.add_argument("--collection-file")
    a.add_argument("--g", required=True)
    a = acts.add_parser("approx", parents=[common])
    a.add_argument("--certificate", required=True, choices=CERTIFICATES)
    a.add_argument("--g", required=True)
    a.add_argument("--k", type=natural, required=True)
    a = acts.add_parser("gap", parents=[common])
    a.add_argument("--certificate", required=True, choices=CERTIFICATES)
    a.add_argument("--corpus", choices=CORPORA)
    p.set_defaults(func=cmd_universal)

    p = sub.add_parser("poset", help="width, chain partitions, the Rado order")
    acts = p.add_subparsers(dest="action", required=True)
    for action in ("width", "chains"):
        a = acts.add_parser(action, parents=[common])
        a.add_argument("--poset", required=True, metavar="POSET_FILE")
    a = acts.add_parser("rado", parents=[common])
    a.add_argument("--n", type=int)
    a.add_argument("--witness", type=int, nargs=2, metavar=("M", "N"))
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("verify", parents=[common], help="run a named suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (BudgetExceededError, ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 1
    except AssertionError as exc:
        # the library raises AssertionError when an internal invariant fails
        print(json.dumps({"error": f"internal invariant failed: {exc}"},
                         sort_keys=True), file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
