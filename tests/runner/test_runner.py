"""SweepRunner unit tests over a synthetic sweep."""

from dataclasses import dataclass
from typing import List

import pytest

from repro.obs import Trace
from repro.runner import (
    SweepRunner,
    SweepSpec,
    canonical_fingerprint,
    run_sweep,
    shard_indices,
)


@dataclass
class SquareRow:
    value: int
    squared: int
    scale: int


def square_point(value: int, scale: int = 1) -> List[SquareRow]:
    return [SquareRow(value=value, squared=value * value * scale,
                      scale=scale)]


def exploding_point(value: int, scale: int = 1) -> List[SquareRow]:
    raise RuntimeError(f"point {value} exploded")


def make_spec(count: int = 10, scale: int = 1,
              point=square_point) -> SweepSpec:
    return SweepSpec(
        name="test.squares",
        point=point,
        grid=[{"value": value} for value in range(count)],
        params={"scale": scale},
    )


class TestSharding:
    def test_round_robin_strided(self):
        assert shard_indices(10, 2) == [[0, 8], [1, 9], [2], [3], [4],
                                        [5], [6], [7]]

    def test_empty(self):
        assert shard_indices(0, 4) == []

    def test_covers_every_index_exactly_once(self):
        for count in (1, 5, 16, 33):
            for jobs in (1, 2, 4, 7):
                shards = shard_indices(count, jobs)
                flat = sorted(i for shard in shards for i in shard)
                assert flat == list(range(count))

    def test_deterministic(self):
        assert shard_indices(33, 4) == shard_indices(33, 4)


class TestSpec:
    def test_point_params_merges_grid_over_params(self):
        spec = make_spec(scale=3)
        assert spec.point_params(2) == {"value": 2, "scale": 3}

    def test_rejects_local_point_function(self):
        def local_point():
            return []
        with pytest.raises(ValueError):
            SweepSpec(name="bad", point=local_point, grid=[{}])

    def test_fingerprints_differ_per_point(self):
        spec = make_spec()
        keys = {canonical_fingerprint(spec.point_params(i))
                for i in range(len(spec))}
        assert len(keys) == len(spec)


class TestRun:
    def test_serial_results_in_grid_order(self):
        rows = run_sweep(make_spec(scale=2))
        assert [r.value for r in rows] == list(range(10))
        assert all(r.squared == r.value * r.value * 2 for r in rows)
        assert all(isinstance(r, SquareRow) for r in rows)

    def test_parallel_equals_serial(self):
        serial = run_sweep(make_spec(scale=2))
        parallel = run_sweep(make_spec(scale=2),
                             runner=SweepRunner(jobs=2))
        assert serial == parallel

    def test_empty_grid(self):
        spec = SweepSpec(name="test.empty", point=square_point, grid=[])
        assert run_sweep(spec) == []

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_point_error_propagates(self):
        with pytest.raises(RuntimeError, match="exploded"):
            run_sweep(make_spec(count=3, point=exploding_point))

    def test_point_error_propagates_from_workers(self):
        with pytest.raises(RuntimeError, match="exploded"):
            run_sweep(make_spec(count=8, point=exploding_point),
                      runner=SweepRunner(jobs=2))


class TestObservability:
    def test_runner_span_and_counters(self):
        trace = Trace(name="test")
        runner = SweepRunner()
        runner.run(make_spec(), trace=trace)
        runner.run(make_spec(), trace=trace)
        spans = [s for s in trace.spans if s.name == "runner"]
        assert len(spans) == 2
        assert spans[0].attrs == {"sweep": "test.squares", "points": 10,
                                  "jobs": 1}
        executes = [s for s in trace.spans if s.name == "execute"]
        assert [s.attrs for s in executes] == [{"shards": 4}] * 2
        counters = {name: counter.value for name, counter
                    in trace.metrics.counters.items()}
        assert counters == {"runner.points": 20, "runner.shards": 8}

    def test_no_cache_no_cache_counters(self):
        """A pooled run records the serial run's two counters: every
        run computes every point, so nothing counts hits."""
        trace = Trace(name="test")
        run_sweep(make_spec(), runner=SweepRunner(jobs=2), trace=trace)
        counters = {name: counter.value for name, counter
                    in trace.metrics.counters.items()}
        assert counters == {"runner.points": 10, "runner.shards": 8}
