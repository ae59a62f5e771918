"""Smoke grid: every experiment harness through the sweep runner.

Each migrated experiment module runs on a deliberately tiny grid with
a shared parallel :class:`SweepRunner`, asserting only the result
*schema*: rows come back, in type, with finite numeric fields.  This
is the conformance net that catches a driver whose sweep migration
broke parameter plumbing (wrong kwargs, unpicklable grid values or
rows) without paying for full-figure runs.
"""

import dataclasses
import math

import pytest

from repro.experiments import (
    ablations,
    fig05_batch_split,
    fig06_offload_ratio,
    fig07_sfc_length,
    fig08_characterization,
    fig14_reorganization,
    fig15_gta,
    fig17_real_sfc,
    load_latency,
)
from repro.runner import SweepRunner, canonical_fingerprint

#: ``canonical_fingerprint`` of ``test_load_latency``'s rows, recorded
#: while a capacity sweep still set every point's load.
LOAD_LATENCY_ROWS = \
    "172876ad80409e3d5803127e9dbac3625d6f41daaae59033701e6f1ea025298f"


@pytest.fixture(scope="module")
def runner():
    """One pooled runner shared by every harness in this module."""
    return SweepRunner(jobs=2)


def assert_schema(rows, row_type):
    """Non-empty, correctly typed rows whose numbers are all finite."""
    assert rows, f"no rows from {row_type.__qualname__} sweep"
    for row in rows:
        assert isinstance(row, row_type)
        for field in dataclasses.fields(row):
            value = getattr(row, field.name)
            if isinstance(value, float):
                assert math.isfinite(value), \
                    f"{field.name}={value!r} in {row}"
                if field.name.startswith(("throughput", "latency",
                                          "capacity", "offered")):
                    assert value >= 0.0, f"{field.name}={value!r}"


class TestSmokeGrid:
    def test_fig05(self, runner):
        rows = runner.run(fig05_batch_split.sweep_spec(stage_counts=[1]))
        assert_schema(rows, fig05_batch_split.Fig5Row)
        assert len(rows) == 2

    def test_fig06(self, runner):
        rows = runner.run(fig06_offload_ratio.sweep_spec(
            nf_types=("ipv4",), ratios=(0.0, 1.0)))
        assert_schema(rows, fig06_offload_ratio.Fig6Row)
        assert len(rows) == 2

    def test_fig07(self, runner):
        rows = runner.run(fig07_sfc_length.sweep_spec(
            cases=(("A", ("ipsec",)),)))
        assert_schema(rows, fig07_sfc_length.Fig7Row)
        assert len(rows) == len(fig07_sfc_length.POLICIES)

    def test_fig08(self, runner):
        rows = runner.run(fig08_characterization.batch_sweep_spec(
            nf_types=("ipv4",), batch_sizes=(64,)))
        assert_schema(rows, fig08_characterization.BatchSweepRow)
        assert len(rows) == 2    # cpu + gpu

    def test_fig14(self, runner):
        rows = runner.run(fig14_reorganization.sweep_spec(
            nf_types=("firewall",), configs=("a", "b")))
        assert_schema(rows, fig14_reorganization.Fig14Row)
        assert len(rows) == 4    # 2 configs x 2 platforms

    def test_fig15(self, runner):
        rows = runner.run(fig15_gta.sweep_spec(
            setups=(("ipv4", ("ipv4",)),)))
        assert_schema(rows, fig15_gta.Fig15Row)
        assert len(rows) == len(fig15_gta.SYSTEMS)

    def test_fig17(self, runner):
        rows = fig17_real_sfc.run(quick=True, acl_sizes=(200,),
                                  packet_sizes=(64,), runner=runner)
        assert_schema(rows, fig17_real_sfc.Fig17Row)
        assert len(rows) == len(fig17_real_sfc.SYSTEMS)

    def test_ablations(self, runner):
        rows = runner.run(ablations.sweep_spec(
            studies=("persistent_kernel",)))
        assert_schema(rows, ablations.AblationRow)
        assert len(rows) == 2

    def test_load_latency(self, runner):
        rows = runner.run(load_latency.latency_sweep_spec(
            fractions=(0.5, 1.0)))
        assert_schema(rows, load_latency.LoadLatencyRow)
        assert len(rows) == 4    # 2 systems x 2 fractions
        assert canonical_fingerprint(rows) == LOAD_LATENCY_ROWS
