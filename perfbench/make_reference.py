"""Regenerate contain_reference.json, the stored contain_stream answers.

    python3 perfbench/make_reference.py

Answers are computed without a budget and must satisfy the containment
lattice before they are written.  Family-member pairs are the same in every
pass and every seed; random pairs are stored per pass for the default seed.
"""
from __future__ import annotations

import json

import checks
from run import load_obskit
from workloads import (REFERENCE_FILE, REFERENCE_SEED, RELATIONS, answer_string,
                       stream_pairs, stream_patterns)

#: passes stored, several times what a run gets through today
REFERENCE_PASSES = 150


def answers_for(ob, h, g) -> str:
    answers = {rel: ob.relations.contains(rel, h, g) for rel in RELATIONS}
    bad = checks.lattice_violations(answers)
    if bad:
        raise SystemExit(f"lattice broken, refusing to store: {bad}")
    return answer_string(answers)


def main():
    ob = load_obskit()
    patterns = stream_patterns(ob)
    family, passes = {}, []
    for index in range(REFERENCE_PASSES):
        stored = {}
        for label, h, g in stream_pairs(ob, patterns, REFERENCE_SEED, index):
            if label.startswith("r"):
                stored[int(label[1:])] = answers_for(ob, h, g)
            elif index == 0:
                family[label] = answers_for(ob, h, g)
        passes.append(" ".join(stored[k] for k in sorted(stored)))
    REFERENCE_FILE.write_text(json.dumps(
        {"seed": REFERENCE_SEED, "family": family, "passes": passes},
        indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
