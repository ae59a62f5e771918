#!/usr/bin/env python3
"""Compare two pipeline-benchmark results files metric by metric.

    python3 benchmarks/pipeline/compare.py A.json B.json

For every workload and every end-to-end metric of ``BENCHMARK.json``
this prints the median of A's untraced runs, the median of B's, and the
change from A to B in the metric's better direction, next to the
metric's bound.  Each pairing is

- ``unresolved`` when either side's own run-to-run spread (interquartile
  range over median, as ``statistics.quantiles`` gives it) exceeds the
  bound, or a side has fewer than two runs;
- ``regressed`` or ``improved`` when B is worse or better than A by more
  than the bound;
- ``unchanged`` otherwise.

Exits 1 when any pairing regressed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(median)


def judge(before: Sequence[float], after: Sequence[float], better: str,
          bound: float) -> Tuple[float, str]:
    """``(gain, verdict)``: the relative change toward ``better``."""
    old, new = statistics.median(before), statistics.median(after)
    if old == new:
        gain = 0.0
    elif old == 0:
        gain = math.copysign(math.inf, new - old)
    else:
        gain = (new - old) / abs(old)
    if better == "lower":
        gain = -gain
    if max(spread(before), spread(after)) > bound:
        return gain, "unresolved"
    if gain < -bound:
        return gain, "regressed"
    if gain > bound:
        return gain, "improved"
    return gain, "unchanged"


def values(results: dict, workload: str, metric: str) -> List[float]:
    """The metric's value in every untraced run of ``workload``."""
    return [run["result"]["metrics"][metric]["value"]
            for run in results["runs"]
            if run["workload"] == workload and run["trace"] == 0
            and run["result"] is not None]


def compare(before: dict, after: dict, benchmark: dict) -> List[tuple]:
    """One row per workload and end-to-end metric."""
    rows = []
    for workload in benchmark["workloads"]:
        for metric in benchmark["end_to_end"]:
            old = values(before, workload["name"], metric["name"])
            new = values(after, workload["name"], metric["name"])
            if old and new:
                gain, verdict = judge(old, new, metric["better"],
                                      metric["bound"])
                medians = (statistics.median(old), statistics.median(new))
            else:
                gain, verdict, medians = math.nan, "unresolved", (math.nan,) * 2
            rows.append((workload["name"], metric["name"], metric["unit"],
                         *medians, gain, metric["bound"], verdict))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path, help="results JSON (A)")
    parser.add_argument("after", type=Path, help="results JSON (B)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(json.loads(args.before.read_text()),
                   json.loads(args.after.read_text()), benchmark)
    print(f"{'workload':18} {'metric':12} {'unit':9} {'median A':>14} "
          f"{'median B':>14} {'gain':>9} {'bound':>7}  verdict")
    for workload, metric, unit, old, new, gain, bound, verdict in rows:
        print(f"{workload:18} {metric:12} {unit:9} {old:14.6g} {new:14.6g} "
              f"{gain:+9.2%} {bound:7.1%}  {verdict}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
