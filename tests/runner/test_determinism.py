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
from repro.runner import SweepRunner, run_sweep

FIG06 = fig06.sweep_spec(quick=True, nf_types=("ipv4", "ipsec"),
                         ratios=(0.0, 0.5, 1.0))
FIG08 = fig08.batch_sweep_spec(quick=True, nf_types=("ipsec",),
                               batch_sizes=(32, 128))
FIG14 = fig14.sweep_spec(quick=True, nf_types=("firewall", "ipsec"),
                         configs=("a", "b", "d"))
FIG17_KWARGS = dict(quick=True, acl_sizes=(200, 1000),
                    packet_sizes=(64, 128))


class TestFig06Determinism:
    def test_parallel_equals_serial(self):
        serial = run_sweep(FIG06)
        parallel = SweepRunner(jobs=4).run(FIG06)
        assert serial == parallel

    def test_worker_count_irrelevant(self):
        assert SweepRunner(jobs=2).run(FIG06) == \
            SweepRunner(jobs=4).run(FIG06)

    def test_row_order_is_grid_order(self):
        rows = SweepRunner(jobs=4).run(FIG06)
        assert [(r.nf_type, r.offload_ratio) for r in rows] == [
            (nf, ratio)
            for nf in ("ipv4", "ipsec")
            for ratio in (0.0, 0.5, 1.0)
        ]


class TestFig08Determinism:
    def test_parallel_equals_serial(self):
        serial = run_sweep(FIG08)
        parallel = SweepRunner(jobs=4).run(FIG08)
        assert serial == parallel

    def test_worker_count_irrelevant(self):
        assert SweepRunner(jobs=4).run(FIG08) == \
            SweepRunner(jobs=3).run(FIG08)

    def test_row_order_is_grid_order(self):
        rows = SweepRunner(jobs=4).run(FIG08)
        assert [(r.platform, r.batch_size) for r in rows] == [
            ("cpu", 32), ("cpu", 128), ("gpu", 32), ("gpu", 128),
        ]


class TestFig14Determinism:
    def test_worker_count_irrelevant(self):
        serial = run_sweep(FIG14)
        assert SweepRunner(jobs=2).run(FIG14) == serial
        assert SweepRunner(jobs=3).run(FIG14) == serial

    def test_row_order_is_grid_order(self):
        rows = SweepRunner(jobs=2).run(FIG14)
        assert [(r.nf_type, r.platform, r.config) for r in rows] == [
            (nf_type, platform, config)
            for nf_type in ("firewall", "ipsec")
            for platform in fig14.PLATFORMS
            for config in ("a", "b", "d")
        ]


class TestFig17Determinism:
    def test_worker_count_irrelevant(self):
        serial = fig17.run(**FIG17_KWARGS)
        assert fig17.run(runner=SweepRunner(jobs=2), **FIG17_KWARGS) == serial
        assert fig17.run(runner=SweepRunner(jobs=3), **FIG17_KWARGS) == serial

    def test_row_order_is_grid_order(self):
        rows = fig17.run(runner=SweepRunner(jobs=2), **FIG17_KWARGS)
        assert [(r.acl_rules, r.packet_size, r.system) for r in rows] == [
            (acl, size, system)
            for acl in (200, 1000)
            for size in (64, 128)
            for system in fig17.SYSTEMS
        ]
