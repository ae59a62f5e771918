"""Parallel-determinism conformance tests.

The runner's core promise: ``--jobs N`` must be *observably
indistinguishable* from serial execution — same row values, same row
order — for any N.  Four representative experiments cover the shapes
of sweep: fig06 (one engine per point), fig08 (nested grid,
enum-valued parameters), fig14 (several deployments and runs per
point, sharing a load computed inside it) and fig17 (two chained
sweeps).

These tests compare full dataclass rows with ``==``; exact float
equality is intentional, because serial and parallel runs share the
same per-point code path and any drift means hidden cross-point state.
"""

from repro.experiments import fig06_offload_ratio as fig06
from repro.experiments import fig08_characterization as fig08
from repro.experiments import fig14_reorganization as fig14
from repro.experiments import fig17_real_sfc as fig17
from repro.runner import ResultCache, SweepRunner

FIG06_KWARGS = dict(quick=True, nf_types=("ipv4", "ipsec"),
                    ratios=(0.0, 0.5, 1.0))
FIG08_KWARGS = dict(quick=True, nf_types=("ipsec",),
                    batch_sizes=(32, 128))
FIG14_KWARGS = dict(quick=True, nf_types=("firewall", "ipsec"),
                    configs=("a", "b", "d"))
FIG17_KWARGS = dict(quick=True, acl_sizes=(200, 1000),
                    packet_sizes=(64, 128))


class TestFig06Determinism:
    def test_parallel_equals_serial(self):
        serial = fig06.run(**FIG06_KWARGS)
        parallel = fig06.run(jobs=4, **FIG06_KWARGS)
        assert serial == parallel

    def test_worker_count_irrelevant(self):
        assert fig06.run(jobs=2, **FIG06_KWARGS) == \
            fig06.run(jobs=4, **FIG06_KWARGS)

    def test_row_order_is_grid_order(self):
        rows = fig06.run(jobs=4, **FIG06_KWARGS)
        assert [(r.nf_type, r.offload_ratio) for r in rows] == [
            (nf, ratio)
            for nf in ("ipv4", "ipsec")
            for ratio in (0.0, 0.5, 1.0)
        ]


class TestFig08Determinism:
    def test_parallel_equals_serial(self):
        serial = fig08.run_batch_sweep(**FIG08_KWARGS)
        parallel = fig08.run_batch_sweep(jobs=4, **FIG08_KWARGS)
        assert serial == parallel

    def test_worker_count_irrelevant(self):
        assert fig08.run_batch_sweep(jobs=4, **FIG08_KWARGS) == \
            fig08.run_batch_sweep(jobs=3, **FIG08_KWARGS)

    def test_row_order_is_grid_order(self):
        rows = fig08.run_batch_sweep(jobs=4, **FIG08_KWARGS)
        assert [(r.platform, r.batch_size) for r in rows] == [
            ("cpu", 32), ("cpu", 128), ("gpu", 32), ("gpu", 128),
        ]


class TestFig14Determinism:
    def test_worker_count_irrelevant(self):
        serial = fig14.run(**FIG14_KWARGS)
        assert fig14.run(jobs=2, **FIG14_KWARGS) == serial
        assert fig14.run(jobs=3, **FIG14_KWARGS) == serial

    def test_row_order_is_grid_order(self):
        rows = fig14.run(jobs=2, **FIG14_KWARGS)
        assert [(r.nf_type, r.platform, r.config) for r in rows] == [
            (nf_type, platform, config)
            for nf_type in ("firewall", "ipsec")
            for platform in fig14.PLATFORMS
            for config in ("a", "b", "d")
        ]

    def test_second_run_is_served_from_the_cache(self):
        cache = ResultCache()
        first = fig14.run(runner=SweepRunner(cache=cache), **FIG14_KWARGS)
        assert (cache.hits, cache.misses) == (0, 4)
        second = fig14.run(runner=SweepRunner(cache=cache), **FIG14_KWARGS)
        assert (cache.hits, cache.misses) == (4, 4)
        assert second == first


class TestFig17Determinism:
    def test_worker_count_irrelevant(self):
        serial = fig17.run(**FIG17_KWARGS)
        assert fig17.run(jobs=2, **FIG17_KWARGS) == serial
        assert fig17.run(jobs=3, **FIG17_KWARGS) == serial

    def test_row_order_is_grid_order(self):
        rows = fig17.run(jobs=2, **FIG17_KWARGS)
        assert [(r.acl_rules, r.packet_size, r.system) for r in rows] == [
            (acl, size, system)
            for acl in (200, 1000)
            for size in (64, 128)
            for system in fig17.SYSTEMS
        ]

    def test_second_run_is_served_from_the_cache(self):
        cache = ResultCache()
        first = fig17.run(runner=SweepRunner(cache=cache), **FIG17_KWARGS)
        assert (cache.hits, cache.misses) == (0, 4)
        second = fig17.run(runner=SweepRunner(cache=cache), **FIG17_KWARGS)
        assert (cache.hits, cache.misses) == (4, 4)
        assert second == first
