"""obskit benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload obs_scan|contain_stream|width_survey \
        --seed N --seconds S --trace 0|1

Run from the repository root; obskit is imported from ./src.  With
`--trace 0` the run measures end-to-end metrics with nothing wrapped.  With
`--trace 1` it runs one pass with every public function of the measured
modules wrapped, times the same pass unwrapped in a fresh interpreter to
price the tracing, and reports per-layer metrics.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it carries details (tail percentile and sample count, setup
samples, budget hits).
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import checks
from spans import Tracer
from workloads import REFERENCE_SEED, WORKLOADS, ContainStream, PassResult

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("multigraph", "relations", "parameters", "universal",
           "obstructions", "families", "verify")
#: end-to-end metric -> unit, in the order they are printed
END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
              "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}
#: per-layer metrics the traced run adds to the tracer's own
TRACE_EXTRA = {"trace.overhead_s": "s", "trace.spans": "count"}
#: set-ups per run: this process's own, then the rest in fresh interpreters
#: after the measured passes, so that the samples do not all fall in the
#: same stretch of the host's speed drift
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def load_obskit():
    """The obskit modules of this checkout, never an installed copy."""
    sys.path.insert(0, str(SRC))
    ob = types.SimpleNamespace(**{m: importlib.import_module(f"obskit.{m}")
                                  for m in MODULES})
    if not Path(ob.multigraph.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"obskit was imported from {ob.multigraph.__file__}, "
                          f"not from {SRC}")
    return ob


def timed_setup(workload, seed):
    """(obskit namespace, workload state, seconds for imports plus inputs)."""
    t0 = time.perf_counter()
    ob = load_obskit()
    state = workload.setup(ob, seed)
    return ob, state, time.perf_counter() - t0


def in_child(workload, seed, *args) -> dict:
    """The last stdout line of this script run in a fresh interpreter, so
    that nothing an in-process memo kept can shorten what it times."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload.name, "--seed", str(seed), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed, seconds):
    ob, state, setup0 = timed_setup(workload, seed)
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(ob, state, seed, len(passes)))
        if not workload.repeat or time.perf_counter() - start >= seconds:
            break
    setups = [setup0] + [in_child(workload, seed, "--setup-only")["setup_s"]
                         for _ in range(SETUP_SAMPLES - 1)]
    timed = [op.seconds for p in passes for op in p.ops if op.timed]
    pct, tail_s, beyond = checks.tail(timed)
    values = {
        "setup_s": statistics.median(setups),
        # the mean, not the median: the host's speed drifts over tens of
        # seconds, and a time average over the run varies least with it
        "wall_s": statistics.fmean(p.wall for p in passes),
        "ops_per_s": len(timed) / sum(timed),
        "op_p50_ms": statistics.median(timed) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    details = {"passes": len(passes), "timed_ops": len(timed),
               "tail_percentile": round(pct, 3), "tail_beyond": beyond,
               "setup_samples_s": setups}
    return passes, metrics, details


def traced(workload, seed):
    ob = load_obskit()
    tracer = Tracer()
    tracer.install()
    try:
        state = workload.setup(ob, seed)
        passes = [workload.run_pass(ob, state, seed, 0,
                                    lambda p: tracer.wrap(p, "obstructions.predicate"))]
        if workload is ContainStream:
            op = ContainStream.budget_probe(ob)
            passes.append(PassResult(ops=[op], problems=[] if op.ok else
                                     ["budget probe answered True"]))
    finally:
        tracer.uninstall()
    # the same pass 0, untraced, after a set-up of its own in a fresh
    # interpreter: caches filled by the traced pass cannot speed it up
    traced_s = passes[0].wall
    plain_s = in_child(workload, seed, "--seconds", "0", "--trace", "0")[
        "metrics"]["wall_s"]["value"]
    metrics = tracer.per_layer()
    metrics["trace.overhead_s"] = (traced_s - plain_s, TRACE_EXTRA["trace.overhead_s"])
    metrics["trace.spans"] = (len(tracer.start), TRACE_EXTRA["trace.spans"])
    details = {"traced_wall_s": traced_s, "untraced_wall_s": plain_s,
               "budget_overshoots_ms": tracer.overshoot_ms}
    return passes, metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for set-up samples)")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        if args.setup_only:
            print(json.dumps({"setup_s": timed_setup(workload, args.seed)[2]}))
            return 0
        if args.trace:
            passes, metrics, details = traced(workload, args.seed)
        else:
            passes, metrics, details = end_to_end(workload, args.seed, args.seconds)
    except (ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    problems = [msg for p in passes for msg in p.problems]
    for msg in problems[:20]:
        print("FAIL", msg, file=sys.stderr)
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(1 for p in passes for op in p.ops if not op.ok)
    print(json.dumps({"workload": workload.name, "seed": args.seed, **details}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
