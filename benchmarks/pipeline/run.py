#!/usr/bin/env python3
"""Pipeline benchmark: deploys, saturated kernel runs, the Fig. 17
sweep and overloaded epoch loops, timed end to end and by layer.

One pass of one workload, in this process::

    python3 benchmarks/pipeline/run.py --workload deploy-5nf --seed 0 \\
        --trace 0 [--seconds 15]

prints ``workload metric value unit`` lines, then, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0`` (the
untraced pass), its ``per_layer`` metrics with ``--trace 1`` (the
traced pass).  The untraced pass runs as many ops as fit in a window of
``--seconds`` (by default ``run_seconds`` of ``BENCHMARK.json``), within
the workload's floor and cap.  Exits 1 when an output check fails.

Every workload, every pass in a fresh subprocess, one after another::

    python3 benchmarks/pipeline/run.py --seed 0 [--runs N] [--seconds T]
        [--trace 0|1] [--workload NAME] [--out FILE]

runs the untraced then the traced pass (or only the pass ``--trace``
names) for seeds ``seed`` to ``seed + N - 1``, and writes every result
with a host stamp to a results JSON for ``compare.py`` (by default
``benchmarks/pipeline/results/seed<S>.json``).

Run from the repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import timing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Units of the metrics printed beside the BENCHMARK.json ones.
PRINTED_ONLY = {"op_ms_p90": "ms", "op_samples": "count", "host_scale": "x",
                "failed_frac": "failed/attempted",
                "sim_loss_frac": "fraction"}
#: Longest a child pass may take before it counts as failed.
CHILD_TIMEOUT_S = 900


def untraced_pass(workload, seed, seconds):
    from workloads import PassResult

    setup_s, state = timing.median_setup(lambda: workload.setup(seed))
    durations, results, calibrations = timing.run_ops(
        lambda index: workload.op(state, index), workload.ops,
        workload.min_ops, seconds)
    result = PassResult({}, len(results))
    for index, outcome in enumerate(results):
        for problem in workload.problems(state, outcome):
            result.fail(f"op {index}", problem)
    for index, problem in workload.gate(state, results).items():
        result.fail(f"op {index}", problem)
    op_s = [timing.scaled(seconds, calibration)
            for seconds, calibration in zip(durations, calibrations)]
    op_ms = timing.Summary.of([seconds * 1e3 for seconds in op_s])
    result.metrics.update({
        "setup_s": setup_s,
        "op_ms_p50": op_ms.p50,
        "op_ms_p90": op_ms.p90,
        "op_samples": op_ms.n,
        "host_scale": timing.host_scale(calibrations),
        "ops_per_s": op_ms.n / sum(op_s),
        "failed_frac": len(result.problems) / op_ms.n,
        "peak_rss_mb": timing.peak_rss_mb(),
        **workload.sim_metrics(state, results),
    })
    return result


def one_pass(name, seed, seconds, trace, benchmark) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    result = (workload.traced(workload.setup(seed)) if trace
              else untraced_pass(workload, seed, seconds))
    catalogue = benchmark["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in catalogue}
    if set(units) - set(result.metrics) or \
            set(result.metrics) - set(units) - set(PRINTED_ONLY):
        raise RuntimeError(f"{name} measured {sorted(result.metrics)}, "
                           f"expected {sorted(units)}")
    printed = {**units, **PRINTED_ONLY}
    for metric, unit in printed.items():
        if metric in result.metrics:
            print(f"{name} {metric} {result.metrics[metric]!r} {unit}")
    for label, problems in result.problems.items():
        print(f"{name} FAILED {label}: {'; '.join(problems)}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": len(result.problems),
        "metrics": {metric: {"value": result.metrics[metric], "unit": unit}
                    for metric, unit in units.items()},
    }), flush=True)
    return 0 if not result.problems else 1


def orchestrate(args, benchmark) -> int:
    names = ([args.workload] if args.workload
             else [w["name"] for w in benchmark["workloads"]])
    passes = [args.trace] if args.trace is not None else [0, 1]
    runs = []
    for seed in range(args.seed, args.seed + args.runs):
        for name in names:
            for trace in passes:
                command = [sys.executable, str(Path(__file__).resolve()),
                           "--workload", name, "--seed", str(seed),
                           "--trace", str(trace),
                           "--seconds", str(args.seconds)]
                runs.append(child_pass(command, name, seed, trace))
    out = args.out or HERE / "results" / f"seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "host": timing.host_stamp(ROOT),
        "seconds": args.seconds,
        "runs": runs,
    }, indent=1) + "\n")
    failed = [f"{r['workload']} seed {r['seed']} trace {r['trace']}"
              for r in runs if not (r["result"] or {}).get("correct")]
    print(f"wrote {out}")
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def child_pass(command, name, seed, trace) -> dict:
    """Run one pass in a fresh interpreter; echo its lines."""
    start = time.perf_counter()
    result = None
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name} seed {seed} trace {trace}: timed out",
              file=sys.stderr)
    else:
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            # A crashed pass ends without its result line.
            print(lines[-1])
    return {"workload": name, "seed": seed, "trace": trace,
            "wall_s": time.perf_counter() - start, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measurement window of the untraced pass "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced pass only, 1: traced pass only")
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds to run, from --seed up (subprocesses)")
    parser.add_argument("--out", type=Path, help="results JSON to write")
    args = parser.parse_args(argv)

    benchmark_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not benchmark_file.is_file():
        print(f"run.py: expected src/repro and BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    benchmark = json.loads(benchmark_file.read_text())
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    known = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; known: {known}")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    single = args.workload is not None and args.trace is not None
    if single and (args.runs != 1 or args.out is not None):
        parser.error("--runs and --out apply when several passes run")
    if not single:
        return orchestrate(args, benchmark)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return one_pass(args.workload, args.seed, args.seconds, args.trace,
                    benchmark)


if __name__ == "__main__":
    raise SystemExit(main())
