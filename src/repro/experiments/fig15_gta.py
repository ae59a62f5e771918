"""Fig. 15 — effectiveness of graph-based task allocation (GTA).

GTA (NFCompass's partition-based allocator, re-organization disabled)
versus CPU-only, GPU-only, and the exhaustively-searched optimal
offloading fractions, over single NFs and SFC combinations under IMIX
traffic.

Paper findings to reproduce: GTA reaches >= 90 % of the optimal
throughput everywhere, keeps latency under ~4 ms, beats both CPU-only
and GPU-only for every setup except IPv4 (which it correctly leaves
on the CPU), and gains more on SFCs (avg 16 %) than on single NFs
(avg 5 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.baselines.policies import (
    CPUOnlyBaseline,
    ExhaustiveOptimalBaseline,
    GPUOnlyBaseline,
)
from repro.core.allocator import GraphTaskAllocator
from repro.experiments import common
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.engine import BranchProfile, SimulationEngine
from repro.sim.mapping import Deployment
from repro.traffic.distributions import IMIXSize
from repro.traffic.generator import TrafficSpec

SETUPS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("ipv4", ("ipv4",)),
    ("ipv6", ("ipv6",)),
    ("ipsec", ("ipsec",)),
    ("ids", ("ids",)),
    ("ipv4+ipsec", ("ipv4", "ipsec")),
    ("ipv4+ids", ("ipv4", "ids")),
    ("ipsec+ids", ("ipsec", "ids")),
)

SYSTEMS = ("cpu-only", "gpu-only", "gta", "optimal")


@dataclass
class Fig15Row:
    setup: str
    system: str
    throughput_gbps: float
    latency_ms: float


def _measure_point(setup: str, nf_types: Sequence[str], system: str,
                   batch_size: int, batch_count: int,
                   optimal_batch_count: int,
                   refine_passes: int) -> List[Fig15Row]:
    """One sweep point: one (setup, system) pair under IMIX."""
    engine = SimulationEngine()
    platform = engine.platform
    ip_version = 6 if tuple(nf_types) == ("ipv6",) else 4
    spec = TrafficSpec(size_law=IMIXSize(), offered_gbps=40.0,
                       ip_version=ip_version)
    sfc = ServiceFunctionChain([make_nf(t) for t in nf_types],
                               name=setup)
    graph = sfc.concatenated_graph()
    profile = BranchProfile.measure(graph, spec,
                                    sample_packets=256,
                                    batch_size=batch_size)
    if system == "cpu-only":
        baseline = CPUOnlyBaseline(platform=platform)
        mapping = baseline.make_mapping(graph, spec, batch_size)
    elif system == "gpu-only":
        baseline = GPUOnlyBaseline(platform=platform,
                                   persistent_kernel=True)
        mapping = baseline.make_mapping(graph, spec, batch_size)
    elif system == "gta":
        allocator = GraphTaskAllocator(platform=platform,
                                       persistent_kernel=True)
        mapping, _report = allocator.allocate(
            graph, spec, batch_size=batch_size, branch_profile=profile,
        )
    elif system == "optimal":
        optimal = ExhaustiveOptimalBaseline(
            platform=platform, persistent_kernel=True,
            batch_count=optimal_batch_count,
            refine_passes=refine_passes,
        )
        mapping = optimal.make_mapping(graph, spec, batch_size)
    else:
        raise ValueError(f"unknown system {system!r}")
    deployment = Deployment(
        graph, mapping, persistent_kernel=True,
        name=f"{system}:{setup}",
    )
    result = common.measure(
        engine.session(deployment), spec,
        batch_size=batch_size, batch_count=batch_count,
        branch_profile=profile,
    )
    return [Fig15Row(
        setup=setup,
        system=system,
        throughput_gbps=result.throughput_gbps,
        latency_ms=result.latency_ms,
    )]


def sweep_spec(quick: bool = True,
               setups: Sequence = SETUPS) -> common.SweepSpec:
    """The Fig. 15 parameter grid as a runnable sweep."""
    return common.SweepSpec(
        name="fig15.gta",
        point=_measure_point,
        grid=[{"setup": setup_name, "nf_types": tuple(nf_types),
               "system": system}
              for setup_name, nf_types in setups
              for system in SYSTEMS],
        params={"batch_size": common.BATCH_SIZE,
                "batch_count": 50 if quick else 150,
                "optimal_batch_count": 30 if quick else 60,
                "refine_passes": 0 if quick else 1},
    )


def gta_vs_optimal(rows: List[Fig15Row]) -> Dict[str, float]:
    """GTA throughput as a fraction of the exhaustive optimum."""
    by_setup: Dict[str, Dict[str, float]] = {}
    for row in rows:
        by_setup.setdefault(row.setup, {})[row.system] = (
            row.throughput_gbps
        )
    return {
        setup: values.get("gta", 0.0) / max(1e-9,
                                            values.get("optimal", 0.0))
        for setup, values in by_setup.items()
    }


def gta_gain_over_best_effort(rows: List[Fig15Row]) -> Dict[str, float]:
    """The paper's gain metric:
    (GTA - best(CPU-only, GPU-only)) / best(CPU-only, GPU-only)."""
    by_setup: Dict[str, Dict[str, float]] = {}
    for row in rows:
        by_setup.setdefault(row.setup, {})[row.system] = (
            row.throughput_gbps
        )
    gains = {}
    for setup, values in by_setup.items():
        best_effort = max(values.get("cpu-only", 0.0),
                          values.get("gpu-only", 0.0))
        gains[setup] = (values.get("gta", 0.0) - best_effort) \
            / max(1e-9, best_effort)
    return gains


def main(quick: bool = True, runner=None) -> str:
    """Render the Fig. 15 table, GTA/optimal ratios, and gains."""
    rows = common.run_sweep(sweep_spec(quick), runner)
    table = common.format_table(
        ["setup", "system", "Gbps", "latency ms"],
        [[r.setup, r.system, r.throughput_gbps, r.latency_ms]
         for r in rows],
        title="Fig. 15 — GTA vs CPU-only / GPU-only / optimal (IMIX)",
    )
    fractions = gta_vs_optimal(rows)
    gains = gta_gain_over_best_effort(rows)
    single = [g for s, g in gains.items() if "+" not in s]
    chains = [g for s, g in gains.items() if "+" in s]
    notes = [
        "GTA / optimal: " + ", ".join(
            f"{s}: {f:.0%}" for s, f in fractions.items()
        ) + "  (paper: >= 90 % everywhere)",
        f"avg GTA gain over best-effort: single NFs "
        f"{sum(single) / max(1, len(single)):.0%}, SFCs "
        f"{sum(chains) / max(1, len(chains)):.0%} "
        "(paper: 5 % and 16 %)",
    ]
    return table + "\n" + "\n".join(notes)


if __name__ == "__main__":
    print(main(quick=False))
