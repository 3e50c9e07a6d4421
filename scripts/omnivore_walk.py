"""Walk the omnivore construction for a graph class and print each step.

Step k is the least class member in enumeration order (vertex count, then
edge units, then canonical form) that contains step k - 1 under the class
relation and contains every member with at most k vertices.  A builtin
class walks at the multiplicity its obstruction set ships at
(`verify.FIXTURE_BOUNDS`); a class-spec file names its own.  Consecutive
steps may be equal: the theta_like chain repeats theta(2), the double
edge, from step 2 on.  The table shows the growth and re-verifies every
consecutive containment.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from obskit.families import omnivore_chain, parse_class_spec
from obskit.multigraph import format_graph_text
from obskit.obstructions import BUILTIN_CLASSES
from obskit.relations import Mode, contains
from obskit.verify import FIXTURE_BOUNDS


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--class", dest="cls", default="forests",
                    help="builtin class name (%s) or a class-spec file path"
                         % ", ".join(sorted(BUILTIN_CLASSES)))
    ap.add_argument("--steps", type=int, default=5)
    ap.add_argument("--show-graphs", action="store_true")
    args = ap.parse_args(argv)

    if args.cls in BUILTIN_CLASSES:
        relation, member = BUILTIN_CLASSES[args.cls]
        mult_max = FIXTURE_BOUNDS[args.cls][1]
    else:
        with open(args.cls) as fh:
            spec = parse_class_spec(fh.read())
        relation, member = spec.relation, spec.member
        mult_max = spec.mult_cap if spec.mode is Mode.MULTI else 1
    mode = Mode.SIMPLE if mult_max == 1 else Mode.MULTI

    chain = omnivore_chain(relation, member, args.steps, mult_max)

    print(f"class={args.cls} relation={relation.value} steps={len(chain)}")
    print("step  vertices  edge_units  contains_previous")
    prev = None
    for k, g in enumerate(chain, start=1):
        linked = "-" if prev is None else str(contains(relation, prev, g, mode=mode))
        print(f"{k:4d}  {g.n:8d}  {g.total_units:10d}  {linked}")
        if args.show_graphs:
            print("      " + format_graph_text(g).replace("\n", " / "))
        prev = g
    return 0


if __name__ == "__main__":
    sys.exit(main())
