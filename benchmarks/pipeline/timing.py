"""Shared timing rules for the pipeline benchmark.

Every workload is measured the same way:

- set-up (building the workload's state plus one warm-up op) runs
  several times and reports its median, so work moved into set-up
  shows up in ``setup_s``;
- ops run in a closed loop with one client: a fixed count, or — when a
  measurement window is given — as many as fit in it, never fewer than
  a floor and never more than the fixed count;
- percentiles are nearest-rank and always travel with their sample
  count;
- wall times of work done in this process are scaled to a reference
  host speed.  The shared host's speed swings by a quarter or more
  within seconds, so a small fixed mix of pure-Python work is timed
  just before, every few hundredths of a second during, and just after
  every set-up and every op; each is scaled by the median of its own
  samples;
- peak RSS covers this process and every child it waited for.
"""

from __future__ import annotations

import copy
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: How many times set-up runs in one untraced pass (median reported).
SETUP_REPEATS = 3

#: How often the host's speed is sampled while a set-up or an op runs,
#: and the calibration's duration on the host the reference figures
#: were taken on (a 2-core Xeon VM, Python 3.11): times are reported at
#: that speed.
SAMPLE_EVERY_S = 0.05
CALIBRATION_REF_S = 3.7e-4


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The nearest-rank ``percent`` percentile of ``values``.

    The smallest sample such that at least ``percent`` % of the samples
    are less than or equal to it; no interpolation, so the result is
    always an observed value.
    """
    if not values:
        raise ValueError("nearest_rank needs at least one sample")
    if not 0.0 < percent <= 100.0:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class Summary:
    """Median and p90 of a sample, with the sample count."""

    n: int
    p50: float
    p90: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        return cls(n=len(values), p50=nearest_rank(values, 50.0),
                   p90=nearest_rank(values, 90.0))


def _arithmetic() -> None:
    total = 0
    for index in range(5000):
        total += index * index % 7


def _dicts() -> None:
    table = {}
    for index in range(2000):
        table[index % 100] = (index, [index, index + 1])
    sorted(table.items(), key=lambda item: item[1][0] % 97)


_RULES = [{"src": (index, index + 1), "dst": [index % 13, index % 17],
           "action": "allow", "priority": index} for index in range(60)]


def _deep_copy() -> None:
    copy.deepcopy(_RULES)


def calibration_s() -> float:
    """Wall seconds of a fixed mix of pure-Python work: the host's
    speed now.

    The geometric mean of three loops: integer arithmetic, dict and
    tuple churn with a sort, and a deep copy of a small rule table.
    Busy neighbours slow memory-heavy work more than arithmetic, and
    the mix tracks the workloads' own slow-downs more closely than any
    one of the loops does.
    """
    logs = []
    for loop in (_arithmetic, _dicts, _deep_copy):
        seconds, _ = timed(loop)
        logs.append(math.log(seconds))
    return math.exp(statistics.fmean(logs))


def scaled(seconds: float, calibration: float) -> float:
    """``seconds`` at the reference host's speed."""
    return seconds * CALIBRATION_REF_S / calibration


def host_scale(calibrations: Sequence[float]) -> float:
    """Factor that turns this run's wall times into reference-host times."""
    return CALIBRATION_REF_S / statistics.median(calibrations)


def timed(fn: Callable[..., Any], *args: Any) -> Tuple[float, Any]:
    """``(wall seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def calibrated(fn: Callable[..., Any], *args: Any
               ) -> Tuple[float, float, Any]:
    """``(wall seconds, calibration, result)`` of one call.

    The calibration is the median of samples timed just before the
    call, every ``SAMPLE_EVERY_S`` during it (from an interval-timer
    signal handler, whose own time is taken off the call's), and just
    after it, so it follows the host's speed while the call ran.  Must
    run in the main thread.
    """
    samples = [calibration_s()]
    handler_s = 0.0

    def sample(signum, frame):
        nonlocal handler_s
        start = time.perf_counter()
        samples.append(calibration_s())
        handler_s += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        seconds, result = timed(fn, *args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    samples.append(calibration_s())
    return seconds - handler_s, statistics.median(samples), result


def median_setup(setup: Callable[[], Any], repeats: int = SETUP_REPEATS
                 ) -> Tuple[float, Any]:
    """Run ``setup`` ``repeats`` times.

    Each call must build its state from scratch (including its warm-up
    op), so the repeats measure the same work.  Returns the median of
    the repeats' scaled seconds, and the last state.
    """
    durations = []
    state = None
    for _ in range(repeats):
        seconds, calibration, state = calibrated(setup)
        durations.append(scaled(seconds, calibration))
    return statistics.median(durations), state


def run_ops(op: Callable[[int], Any], count: int,
            min_count: int = 1,
            seconds: Optional[float] = None
            ) -> Tuple[List[float], List[Any], List[float]]:
    """Run ``op(0), op(1), ...`` one after another.

    Without ``seconds`` exactly ``count`` ops run.  With it, ops run
    until the window has elapsed, but at least ``min_count`` and at most
    ``count`` of them.  Returns each op's wall seconds, result and
    calibration (see :func:`calibrated`).
    """
    if not 1 <= min_count <= count:
        raise ValueError(f"need 1 <= min_count <= count, got "
                         f"{min_count}, {count}")
    durations: List[float] = []
    results: List[Any] = []
    calibrations: List[float] = []
    start = time.perf_counter()
    while len(results) < count:
        if (seconds is not None and len(results) >= min_count
                and time.perf_counter() - start >= seconds):
            break
        duration, calibration, result = calibrated(op, len(results))
        durations.append(duration)
        calibrations.append(calibration)
        results.append(result)
    return durations, results, calibrations


def peak_rss_mb() -> float:
    """Peak resident set size of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Linux reports kilobytes.
    return max(own, children) / 1024.0


def _git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_stamp(root: Path) -> dict:
    """What a result needs to be compared fairly: host and code."""
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }
