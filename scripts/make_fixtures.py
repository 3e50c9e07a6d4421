#!/usr/bin/env python3
"""Regenerate the packaged golden fixtures from scratch.

Every fixture is the output of an exhaustive computation at a pinned universe
bound.  Rerunning this script must be a no-op on a healthy tree: a file is
rewritten only when its graphs differ from the computed ones up to
isomorphism, so a change of vertex labels alone leaves it as it is.  The test
suite compares fresh computations against these files, so regenerate only
when a deliberate change to the generators or scan bounds is being made.
"""
import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from obskit.families import omnivore_chain
from obskit.multigraph import format_graph_set, parse_graph_set
from obskit.obstructions import BUILTIN_CLASSES, compute_obstructions
from obskit.verify import FIXTURE_BOUNDS, _same_graphs

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src/obskit/fixtures"


def write_fixture(name, graphs, comment):
    """Write graphs to the fixture `name` unless it already holds the same
    graphs up to isomorphism."""
    path = FIXTURES / name
    if path.exists() and _same_graphs(parse_graph_set(path.read_text()), graphs):
        print(f"kept {name}: {len(graphs)} graphs")
        return
    path.write_text(format_graph_set(graphs, comment=comment))
    print(f"wrote {name}: {len(graphs)} graphs")


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, (n_max, mult_max) in FIXTURE_BOUNDS.items():
        relation, predicate = BUILTIN_CLASSES[name]
        rep = compute_obstructions(relation, predicate, n_max, mult_max)
        write_fixture(f"obstructions_{name}.txt", rep.obstructions,
                      f"{relation.value} obstructions of {name} "
                      f"within n<={n_max}, mult<={mult_max}")
        if name == "apex_forest":
            third = [g for g in rep.obstructions
                     if (g.n, g.total_units) not in ((4, 6), (6, 6))]
            if len(third) != 1:
                raise SystemExit(f"expected one third apex-forest obstruction, "
                                 f"found {len(third)}")
            write_fixture("apex_forest_third_obstruction.txt", third,
                          "the computed third apex-forest obstruction "
                          "(triangle with a pair-attached outer vertex "
                          "per edge, the 3-sun)")

    chain = omnivore_chain(*BUILTIN_CLASSES["forests"], 5)
    write_fixture("omnivore_forests.txt", chain,
                  "omnivore steps k=1..5 for the forest class")


if __name__ == "__main__":
    main()
