"""Survey how far collection values drift from exact parameter values."""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from obskit.universal import (
    CERTIFICATES,
    gap_report,
    mixed_corpus,
    theta_star_corpus,
    tree_corpus,
)

CORPORA = {
    "theta_star": theta_star_corpus,
    "trees7": lambda: tree_corpus(7),
    "trees9": lambda: tree_corpus(9),
    "mixed": lambda: mixed_corpus(300),
}

DEFAULT_CORPUS = {
    "treewidth": "mixed",
    "pathwidth": "trees9",
    "edge_degree": "theta_star",
}


def survey(kind_name, corpus_name, tsv):
    cert = CERTIFICATES[kind_name]
    corpus = CORPORA[corpus_name]()
    report = gap_report(cert.kind, cert.collection, corpus)

    if tsv:
        print("vertices\tedge_units\tparameter\tcollection_value")
        for row in report.rows:
            print(f"{row.graph.n}\t{row.graph.total_units}\t"
                  f"{row.parameter}\t{row.collection}")
        return

    print(f"kind={kind_name} collection={cert.collection.name} "
          f"corpus={corpus_name} ({len(report.rows)} graphs)")
    print("  max collection value seen at each parameter value:")
    for pv, bound in report.envelope_by_parameter:
        print(f"    parameter {pv:2d} -> collection <= {bound}")
    print("  max parameter seen at each collection value:")
    for cv, bound in report.envelope_by_collection:
        print(f"    collection {cv:2d} -> parameter <= {bound}")
    gaps = [row.collection - row.parameter for row in report.rows]
    print(f"  gap range: [{min(gaps)}, {max(gaps)}]")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.strip())
    ap.add_argument("--kind", choices=sorted(CERTIFICATES), default=None,
                    help="certified parameter to survey (default: all three)")
    ap.add_argument("--corpus", choices=sorted(CORPORA), default=None,
                    help="graph corpus (default: the kind's usual one)")
    ap.add_argument("--tsv", action="store_true",
                    help="dump raw rows as TSV instead of the summary")
    args = ap.parse_args(argv)

    kinds = [args.kind] if args.kind else sorted(CERTIFICATES)
    if args.tsv and len(kinds) > 1:
        ap.error("--tsv needs a single --kind")
    for kind_name in kinds:
        corpus_name = args.corpus or DEFAULT_CORPUS[kind_name]
        survey(kind_name, corpus_name, args.tsv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
