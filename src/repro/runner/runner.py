"""Sharded parallel sweep execution.

The :class:`SweepRunner` takes a :class:`~repro.runner.spec.SweepSpec`
and produces its result rows:

1. the grid points are chunked into deterministic round-robin shards —
   strided, so expensive neighbouring points (a figure's largest batch
   sizes, say) spread across workers;
2. shards execute on a process pool (``jobs`` workers, each point
   building its own engine and
   :class:`~repro.sim.kernel.SimulationSession`), or inline when
   ``jobs <= 1`` — the *same* shard code path, so serial and parallel
   runs are byte-identical by construction;
3. results merge back **in grid order** regardless of completion
   order.

Every run computes every point.  A point's rows come back as the point
function built them; the pool pickles them across the process
boundary.

Observability: a ``runner`` span wraps the sweep in the active trace,
with an ``execute`` child around the pool phase, and the scheduling
counters flow into the trace's
:class:`~repro.obs.metrics.MetricsRegistry` (``runner.points``,
``runner.shards``).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import resolve_trace
from repro.runner.spec import SweepSpec

#: Target shards per worker: enough slack for the strided shards to
#: balance heterogeneous point costs without drowning in pool overhead.
SHARDS_PER_JOB = 4


def shard_indices(count: int, jobs: int) -> List[List[int]]:
    """Deterministic round-robin sharding of ``range(count)``.

    Shard ``s`` holds indices ``s, s + S, s + 2S, ...`` where ``S`` is
    the shard count — a pure function of (count, jobs), independent of
    execution order, so any two runs shard identically.
    """
    if count <= 0:
        return []
    shard_count = max(1, min(count, max(1, jobs) * SHARDS_PER_JOB))
    return [list(range(shard, count, shard_count))
            for shard in range(shard_count)]


def _execute_shard(spec: SweepSpec, indices: Sequence[int]
                   ) -> List[Tuple[int, List[Any]]]:
    """Run one shard's points; returns (grid index, rows) pairs.

    Module-level so worker processes can unpickle it; also the serial
    path, so both paths share one implementation.
    """
    return [(index, spec.point(**spec.point_params(index)))
            for index in indices]


class SweepRunner:
    """Process-pool sweep executor."""

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def run(self, spec: SweepSpec, trace=None) -> List[Any]:
        """Execute the sweep; returns its rows in grid order."""
        trace = resolve_trace(trace)
        metrics = trace.metrics
        count = len(spec.grid)
        with trace.span("runner", sweep=spec.name, points=count,
                        jobs=self.jobs):
            metrics.counter("runner.points").add(count)
            shards = shard_indices(count, self.jobs)
            metrics.counter("runner.shards").add(len(shards))
            rows: Dict[int, List[Any]] = {}
            with trace.span("execute", shards=len(shards)):
                for index, point_rows in self._execute(spec, shards):
                    rows[index] = point_rows
            return [row for index in range(count) for row in rows[index]]

    def _execute(self, spec: SweepSpec, shards: List[List[int]]):
        """Yield (index, rows) for every sharded point."""
        if not shards:
            return
        if self.jobs == 1 or len(shards) == 1:
            for shard in shards:
                yield from _execute_shard(spec, shard)
            return
        context = multiprocessing.get_context(_start_method())
        workers = min(self.jobs, len(shards))
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=context) as pool:
            futures = [pool.submit(_execute_shard, spec, shard)
                       for shard in shards]
            # Futures are consumed in submission order; merge order is
            # re-established by grid index anyway, so completion order
            # never matters.
            for future in futures:
                yield from future.result()


def _start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    # fork keeps already-imported experiment modules available in the
    # children without re-import (and is much faster to spin up); fall
    # back to spawn where fork is unavailable.
    return "fork" if "fork" in methods else "spawn"


def run_sweep(spec: SweepSpec, runner: Optional[SweepRunner] = None,
              trace=None) -> List[Any]:
    """Run one sweep on ``runner``, by default a serial
    :class:`SweepRunner`."""
    return (runner or SweepRunner()).run(spec, trace=trace)


__all__ = ["SHARDS_PER_JOB", "SweepRunner", "run_sweep",
           "shard_indices"]
