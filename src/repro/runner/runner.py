"""Sharded parallel sweep execution with result caching.

The :class:`SweepRunner` takes a :class:`~repro.runner.spec.SweepSpec`
and produces its result rows:

1. every grid point is fingerprinted and looked up in the
   :class:`~repro.runner.cache.ResultCache` (if one is attached);
2. the remaining points are chunked into deterministic round-robin
   shards — strided, so expensive neighbouring points (a figure's
   largest batch sizes, say) spread across workers;
3. shards execute on a process pool (``jobs`` workers, each point
   building its own engine and
   :class:`~repro.sim.kernel.SimulationSession`), or inline when
   ``jobs <= 1`` — the *same* shard code path, so serial and parallel
   runs are byte-identical by construction;
4. results merge back **in grid order** regardless of completion
   order, are stored in the cache, and are decoded to typed rows.

Rows cross the process boundary as plain dicts (the cache wire
format); both the serial and the parallel path round-trip rows through
that encoding, which keeps the two paths observably identical.

Observability: a ``runner`` span wraps the sweep in the active trace,
with an ``execute`` child around the pool phase, and the cache and
scheduling counters flow into the trace's
:class:`~repro.obs.metrics.MetricsRegistry` (``runner.points``,
``runner.points.executed``, ``runner.cache.hits``,
``runner.cache.misses``, ``runner.shards``).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import resolve_trace
from repro.runner.cache import ResultCache
from repro.runner.spec import SweepSpec, encode_rows

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
                   ) -> List[Tuple[int, List[Dict[str, Any]]]]:
    """Run one shard's points; returns (grid index, encoded rows).

    Module-level so worker processes can unpickle it; also the serial
    path, so both paths share one implementation.
    """
    results = []
    for index in indices:
        rows = spec.point(**spec.point_params(index))
        results.append((index, encode_rows(rows)))
    return results


class SweepRunner:
    """Process-pool sweep executor with content-addressed caching."""

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache

    # -- execution -----------------------------------------------------
    def run(self, spec: SweepSpec, trace=None) -> List[Any]:
        """Execute the sweep; returns typed rows in grid order."""
        trace = resolve_trace(trace)
        metrics = trace.metrics
        count = len(spec.grid)
        with trace.span("runner", sweep=spec.name, points=count,
                        jobs=self.jobs) as span:
            metrics.counter("runner.points").add(count)

            # Phase 1: resolve cached points.
            encoded: Dict[int, List[Dict[str, Any]]] = {}
            keys: Dict[int, str] = {}
            if self.cache is not None:
                for index in range(count):
                    keys[index] = spec.fingerprint(index)
                    hit = self.cache.get(keys[index])
                    if hit is not None:
                        encoded[index] = hit
                metrics.counter("runner.cache.hits").add(len(encoded))
                metrics.counter("runner.cache.misses").add(
                    count - len(encoded))

            # Phase 2: shard and execute the misses.
            pending = [i for i in range(count) if i not in encoded]
            shards = shard_indices(len(pending), self.jobs)
            shards = [[pending[i] for i in shard] for shard in shards]
            metrics.counter("runner.shards").add(len(shards))
            with trace.span("execute", shards=len(shards),
                            pending=len(pending)):
                for index, rows in self._execute(spec, shards):
                    encoded[index] = rows
                    if self.cache is not None:
                        self.cache.put(keys[index], rows)
            metrics.counter("runner.points.executed").add(len(pending))
            span.set(executed=len(pending),
                     cache_hits=count - len(pending))

            # Phase 3: merge in grid order, decode to typed rows.
            merged: List[Any] = []
            for index in range(count):
                merged.extend(spec.decode_rows(encoded[index]))
            return merged

    def _execute(self, spec: SweepSpec, shards: List[List[int]]):
        """Yield (index, encoded rows) for every sharded point."""
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
    """Run one sweep on ``runner``, by default a serial, uncached
    :class:`SweepRunner`."""
    return (runner or SweepRunner()).run(spec, trace=trace)


__all__ = ["SHARDS_PER_JOB", "SweepRunner", "run_sweep",
           "shard_indices"]
