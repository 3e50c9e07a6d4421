"""Recompute the shipped obstruction sets and diff them against the fixtures.

For every builtin graph class (or a single one picked with --class) this
reruns the brute-force obstruction scan at the bounds the fixture was
computed at, then reports whether the result still matches the file under
src/obskit/fixtures/.  Use --n-max / --mult-max to probe a different
universe; the diff column is skipped then, since the fixture only pins the
default bounds.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from obskit.obstructions import BUILTIN_CLASSES, compute_obstructions, fixture_graphs
from obskit.multigraph import format_graph_text
from obskit.verify import FIXTURE_BOUNDS, _same_graphs


def run_class(name, n_max, mult_max, show_graphs, custom_bounds):
    relation, predicate = BUILTIN_CLASSES[name]
    start = time.perf_counter()
    report = compute_obstructions(relation, predicate, n_max, mult_max,
                                  class_desc=name)
    elapsed = time.perf_counter() - start

    if custom_bounds:
        verdict = "(custom bounds, no fixture diff)"
    else:
        want = fixture_graphs(f"obstructions_{name}.txt")
        verdict = "MATCH" if _same_graphs(report.obstructions, want) else "DIFFER"

    print(f"{name:18s} {relation.value:10s} n<={n_max} mult<={mult_max}  "
          f"{len(report.obstructions):3d} obstruction(s)  {elapsed:6.2f}s  {verdict}")
    if show_graphs:
        for g in report.obstructions:
            print("    " + format_graph_text(g).replace("\n", " / "))
    return verdict != "DIFFER"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--class", dest="cls", choices=sorted(BUILTIN_CLASSES),
                    help="single class to recompute (default: all)")
    ap.add_argument("--n-max", type=int, default=None)
    ap.add_argument("--mult-max", type=int, default=None)
    ap.add_argument("--show-graphs", action="store_true",
                    help="print each obstruction in graph text form")
    args = ap.parse_args(argv)

    names = [args.cls] if args.cls else sorted(BUILTIN_CLASSES)
    ok = True
    for name in names:
        default_n, default_mult = FIXTURE_BOUNDS[name]
        n_max = args.n_max if args.n_max is not None else default_n
        mult_max = args.mult_max if args.mult_max is not None else default_mult
        custom = (n_max, mult_max) != (default_n, default_mult)
        ok &= run_class(name, n_max, mult_max, args.show_graphs, custom)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
