#!/usr/bin/env python3
"""Regenerate the packaged golden fixtures from scratch.

Every fixture is the output of an exhaustive computation at a pinned universe
bound.  Rerunning this script must be a no-op on a healthy tree; the test
suite compares fresh computations against these files, so regenerate only
when a deliberate change to the generators or scan bounds is being made.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from obskit.families import CLASS_SPECS, omnivore_chain
from obskit.multigraph import format_graph_set
from obskit.obstructions import BUILTIN_CLASSES, compute_obstructions
from obskit.verify import FIXTURE_BOUNDS

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src/obskit/fixtures"


def main():
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, (n_max, mult_max) in FIXTURE_BOUNDS.items():
        relation, predicate = BUILTIN_CLASSES[name]
        rep = compute_obstructions(relation, predicate, n_max, mult_max)
        text = format_graph_set(
            rep.obstructions,
            comment=f"{relation.value} obstructions of {name} "
                    f"within n<={n_max}, mult<={mult_max}")
        path = FIXTURES / f"obstructions_{name}.txt"
        path.write_text(text)
        print(f"wrote {path.name}: {len(rep.obstructions)} graphs")
        if name == "apex_forest":
            third = [g for g in rep.obstructions
                     if (g.n, g.total_units) not in ((4, 6), (6, 6))]
            if len(third) != 1:
                raise SystemExit(f"expected one third apex-forest obstruction, "
                                 f"found {len(third)}")
            extra = FIXTURES / "apex_forest_third_obstruction.txt"
            extra.write_text(format_graph_set(
                third, comment="the computed third apex-forest obstruction "
                               "(triangle with a pair-attached outer vertex "
                               "per edge, the 3-sun)"))
            print(f"wrote {extra.name}")

    chain = omnivore_chain(CLASS_SPECS["forests"], 5)
    path = FIXTURES / "omnivore_forests.txt"
    path.write_text(format_graph_set(
        chain, comment="omnivore steps k=1..5 for the forest class"))
    print(f"wrote {path.name}: {len(chain)} graphs")


if __name__ == "__main__":
    main()
