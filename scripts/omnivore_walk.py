"""Walk the omnivore construction for a graph class and print each step.

Each step k produces the smallest class member (by vertex count plus edge
units, ties broken canonically) that contains the previous member under the
class relation and is strictly larger.  The table shows the growth and
re-verifies every consecutive containment.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from obskit.families import CLASS_SPECS, omnivore_chain, parse_class_spec
from obskit.multigraph import format_graph_text
from obskit.relations import contains


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--class", dest="cls", default="forests",
                    help="builtin class name (%s) or a class-spec file path"
                         % ", ".join(sorted(CLASS_SPECS)))
    ap.add_argument("--steps", type=int, default=5)
    ap.add_argument("--n-budget", type=int, default=None,
                    help="abort a step if the search would pass this many vertices")
    ap.add_argument("--show-graphs", action="store_true")
    args = ap.parse_args(argv)

    if args.cls in CLASS_SPECS:
        spec = CLASS_SPECS[args.cls]
    else:
        with open(args.cls) as fh:
            spec = parse_class_spec(fh.read())

    chain = omnivore_chain(spec, args.steps, n_budget=args.n_budget)

    print(f"class={args.cls} relation={spec.relation.value} steps={len(chain)}")
    print("step  vertices  edge_units  contains_previous")
    prev = None
    for k, g in enumerate(chain, start=1):
        linked = "-" if prev is None else str(contains(spec.relation, prev, g,
                                                       mode=spec.mode))
        print(f"{k:4d}  {g.n:8d}  {g.total_units:10d}  {linked}")
        if args.show_graphs:
            print("      " + format_graph_text(g).replace("\n", " / "))
        prev = g
    return 0


if __name__ == "__main__":
    sys.exit(main())
