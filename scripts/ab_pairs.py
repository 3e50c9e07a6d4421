"""Run alternating parent/change pairs of the benchmark and record them.

    python3 scripts/ab_pairs.py --parent DIR --change DIR --parent-commit SHA \
        --first-seed 1001 --pairs 10 [--claim contain_stream:wall_s] \
        --note "what the change does" --out BENCH_10.json

DIR is an exported tree (for example `git archive REV | tar -x -C DIR`)
holding `perfbench/` and `src/`.  For every workload of the change tree's
`BENCHMARK.json`, pair i runs `python3 perfbench/run.py --workload W
--seed S` at its default length once in each tree, with seed
first_seed + i, the parent first on even i and the change first on odd i.
The output file records every run of every end-to-end metric, each side's
median and quartiles (inclusive method), the change/parent ratio of the
medians, the number of pairs the change wins by the metric's direction,
the failed operations, and the machine.  Units, directions and bounds come
from the same `BENCHMARK.json`.  One line per run goes to stderr as it
finishes.  `--claim` names the workload and end-to-end metric the change
claims a gain on; it is checked against `BENCHMARK.json` before the first
run, and left out (recorded as null) when the change claims none.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 900


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The result line of one benchmark run in `tree`, at its default length."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(x, 6) for x in runs]}


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        import networkx
        nx_version = networkx.__version__
    except ImportError:
        nx_version = None
    return {"cpus": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "networkx": nx_version,
            "platform": platform.platform()}


def workload_record(spec: dict, seeds: list[int], results: dict) -> dict:
    """results[side] is the list of result lines, one per seed."""
    metrics = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        side_runs = {side: [r["metrics"][name]["value"] for r in results[side]]
                     for side in ("parent", "change")}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(side_runs["parent"], side_runs["change"]))
        parent, change = summary(side_runs["parent"]), summary(side_runs["change"])
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": parent, "change": change,
            "ratio": round(change["median"] / parent["median"], 4),
            "change_wins": wins}
    return {
        "seeds": seeds, "pairs": len(seeds),
        "runs_correct": all(r["correct"] for rs in results.values() for r in rs),
        "failed_ops": {side: sum(r["failed"] for r in results[side])
                       for side in ("parent", "change")},
        "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--note", required=True, help="one line on what the change does")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("quartiles need at least two pairs")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    claim = None
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in workloads or \
                metric not in [m["name"] for m in spec["end_to_end"]]:
            ap.error(f"--claim {args.claim!r} is not WORKLOAD:METRIC for a workload "
                     "and an end-to-end metric of BENCHMARK.json")
        claim = {"workload": workload, "metric": metric}
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {}
    for w in workloads:
        results = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                res = run_once(trees[side], w, seed)
                results[side].append(res)
                print(json.dumps({"workload": w, "seed": seed, "side": side,
                                  "correct": res["correct"], "failed": res["failed"],
                                  "metrics": {k: v["value"] for k, v in
                                              res["metrics"].items()}}),
                      file=sys.stderr, flush=True)
        record[w] = workload_record(spec, seeds, results)

    out = {
        "change": args.note,
        "parent_commit": args.parent_commit,
        "harness": "python3 perfbench/run.py --workload W --seed S (its default "
                   "--seconds and --trace 0), parent and change each from a fresh "
                   "export of its tree",
        "pairs": f"{args.pairs} per workload, seeds {seeds[0]}-{seeds[-1]}, "
                 "alternating which side runs first (parent first on even pair index)",
        "statistics": f"median and quartiles (inclusive method) of the {args.pairs} "
                      "runs per side; change_wins counts pairs where the change is "
                      "better by the metric's direction",
        "claim": claim,
        "machine": machine(),
        "workloads": record,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
