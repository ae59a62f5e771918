"""Chaos sweep harness: fig06/fig08-style grids under seeded faults.

Runs a grid of (NF chain x fault seed) points, each deploying through
the :class:`~repro.faults.runtime.ResilientRuntime` against a
deterministic :meth:`FaultTimeline.seeded` schedule over the GPUs, and
reports replan counts, fault-path accounting, and the exact packet
conservation check (delivered + dropped == offered, every epoch).
Like every
paper harness it describes the grid as a
:class:`~repro.runner.SweepSpec`, so ``--jobs N`` parallelism and
content-addressed caching come from :mod:`repro.runner` — and serial
vs parallel runs are byte-identical, which the CI chaos step asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments import common
from repro.faults.runtime import ResilientRuntime
from repro.faults.spec import FaultTimeline
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

NF_TYPES = ("ipv4", "ipsec", "dpi")
SEEDS = tuple(range(4))


@dataclass
class ChaosRow:
    """One chaos point: a chain under one seeded fault schedule."""

    nf_type: str
    fault_seed: int
    faults: int
    replans: int
    requeued_batches: int
    throughput_gbps: float
    injected_packets: float
    delivered_packets: float
    dropped_packets: float
    conserved: bool


def _chaos_point(nf_type: str, fault_seed: int, batch_size: int,
                 batch_count: int, epochs: int) -> List[ChaosRow]:
    """One sweep point: one chain against one seeded schedule."""
    spec = TrafficSpec(size_law=FixedSize(512), offered_gbps=40.0)
    sfc = ServiceFunctionChain([make_nf(nf_type)])
    platform = common.PlatformSpec()
    horizon = (epochs * batch_count * batch_size
               * spec.mean_packet_interval())
    faults = FaultTimeline.seeded(
        fault_seed, platform.gpu_processor_ids(), horizon
    )
    runtime = ResilientRuntime(sfc, spec, faults, platform=platform,
                               batch_size=batch_size)
    reports = [runtime.step(spec, batch_count=batch_count).report
               for _ in range(epochs)]
    return [ChaosRow(
        nf_type=nf_type,
        fault_seed=fault_seed,
        faults=len(faults),
        replans=runtime.replans,
        requeued_batches=sum(r.ledger.fault_crash.batches
                             for r in reports),
        throughput_gbps=sum(r.throughput_gbps for r in reports) / epochs,
        injected_packets=sum(r.offered_packets for r in reports),
        delivered_packets=sum(r.delivered_packets for r in reports),
        dropped_packets=sum(r.dropped_packets for r in reports),
        conserved=all(r.conservation_error == 0 for r in reports),
    )]


def sweep_spec(quick: bool = True,
               nf_types: Sequence[str] = NF_TYPES,
               seeds: Sequence[int] = SEEDS,
               batch_size: int = 64) -> common.SweepSpec:
    """The chaos grid as a runnable sweep."""
    return common.SweepSpec(
        name="chaos.faults",
        point=_chaos_point,
        row_type=ChaosRow,
        grid=[{"nf_type": nf_type, "fault_seed": seed}
              for nf_type in nf_types for seed in seeds],
        params={"batch_size": batch_size,
                "batch_count": 40 if quick else 120,
                "epochs": 3 if quick else 6},
        context=common.sweep_context(),
    )


def run(quick: bool = True,
        nf_types: Sequence[str] = NF_TYPES,
        seeds: Sequence[int] = SEEDS,
        batch_size: int = 64, runner=None) -> List[ChaosRow]:
    """Run the chaos grid; returns one row per (chain, seed)."""
    return common.run_sweep(
        sweep_spec(quick=quick, nf_types=nf_types, seeds=seeds,
                   batch_size=batch_size),
        runner=runner,
    )


def render(rows: Sequence[ChaosRow]) -> str:
    """Render chaos rows as a table plus conservation verdict."""
    table = common.format_table(
        ["NF", "seed", "faults", "replans", "requeued", "Gbps",
         "conserved"],
        [[r.nf_type, r.fault_seed, r.faults, r.replans,
          r.requeued_batches, r.throughput_gbps,
          "yes" if r.conserved else "NO"]
         for r in rows],
        title="Chaos regression — seeded device-fault schedules "
              "through ResilientRuntime",
    )
    violations = [r for r in rows if not r.conserved]
    verdict = ("conservation: OK (delivered + dropped == injected on "
               "every point)" if not violations else
               f"conservation: {len(violations)} VIOLATION(S)")
    return table + "\n" + verdict


def main(quick: bool = True, runner=None) -> str:
    """Run the chaos grid and render the regression table."""
    return render(run(quick=quick, runner=runner))


if __name__ == "__main__":
    print(main(quick=False))
