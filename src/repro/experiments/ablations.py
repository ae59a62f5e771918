"""Ablation studies over NFCompass's design choices.

Four ablations, each isolating one mechanism DESIGN.md calls out:

- ``reorganization`` — contribution of SFC parallelization and NF
  synthesis (each on/off) to end-to-end throughput and latency;
- ``partition_algorithm`` — modified Kernighan–Lin versus the
  lightweight agglomerative clustering: solution quality (simulated
  capacity) and planning time;
- ``persistent_kernel`` — NFCompass's persistent GPU kernels versus
  per-batch launch/teardown;
- ``expansion_delta`` — offload-ratio granularity (the paper's
  delta = 10 %) versus coarser/finer virtual-instance expansion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.allocator import GraphTaskAllocator
from repro.core.compass import NFCompass
from repro.experiments import common
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.engine import BranchProfile, SimulationEngine
from repro.sim.mapping import Deployment
from repro.traffic.distributions import IMIXSize
from repro.traffic.generator import TrafficSpec


@dataclass
class AblationRow:
    study: str
    variant: str
    throughput_gbps: float
    latency_ms: float
    planning_seconds: float = 0.0


def _default_spec() -> TrafficSpec:
    return TrafficSpec(size_law=IMIXSize(), offered_gbps=40.0, seed=21)


def _chain() -> ServiceFunctionChain:
    return ServiceFunctionChain(
        [make_nf("firewall"), make_nf("ids"), make_nf("ipsec")],
        name="fw-ids-ipsec",
    )


STUDIES = ("reorganization", "partition_algorithm",
           "persistent_kernel", "expansion_delta")

DELTAS = (0.5, 0.25, 0.1, 0.05)

_REORG_VARIANTS = (
    ("full", True, True),
    ("no-parallelization", False, True),
    ("no-synthesis", True, False),
    ("neither", False, False),
)


def _ablation_point(study: str, variant: str, batch_count: int,
                    parallelization: bool = True,
                    synthesis: bool = True,
                    persistent: bool = True,
                    delta: float = 0.1) -> List[AblationRow]:
    """One sweep point: one variant of one ablation study.

    ``planning_seconds`` is wall-clock (``time.perf_counter``) and is
    the one intentionally nondeterministic field in any sweep row —
    determinism tests must compare the simulated fields only.
    """
    spec = _default_spec()
    if study == "reorganization":
        compass = NFCompass(
            enable_parallelization=parallelization,
            enable_synthesis=synthesis,
        )
        start = time.perf_counter()
        plan = compass.deploy(_chain(), spec, batch_size=64)
        planning = time.perf_counter() - start
        result = common.measure(plan.session, spec,
                                batch_size=64, batch_count=batch_count,
                                branch_profile=plan.run_profile)
        return [AblationRow(
            study=study, variant=variant,
            throughput_gbps=result.throughput_gbps,
            latency_ms=result.latency_ms,
            planning_seconds=planning,
        )]
    engine = SimulationEngine()
    if study == "partition_algorithm":
        graph = _chain().concatenated_graph()
        allocator = GraphTaskAllocator(platform=engine.platform,
                                       algorithm=variant)
    elif study == "persistent_kernel":
        graph = ServiceFunctionChain(
            [make_nf("ipsec")]
        ).concatenated_graph()
        allocator = GraphTaskAllocator(platform=engine.platform,
                                       persistent_kernel=persistent)
    elif study == "expansion_delta":
        graph = ServiceFunctionChain(
            [make_nf("ipsec"), make_nf("ids")]
        ).concatenated_graph()
        allocator = GraphTaskAllocator(platform=engine.platform,
                                       delta=delta)
    else:
        raise ValueError(f"unknown ablation study {study!r}")
    profile = BranchProfile.measure(graph, spec, sample_packets=256,
                                    batch_size=64)
    start = time.perf_counter()
    mapping, _report = allocator.allocate(graph, spec,
                                          batch_size=64,
                                          branch_profile=profile)
    planning = time.perf_counter() - start
    if study == "partition_algorithm":
        name = f"gta-{variant}"
        persistent_kernel = True
    elif study == "persistent_kernel":
        name = f"ipsec-{'persistent' if persistent else 'launched'}"
        persistent_kernel = persistent
        planning = 0.0      # study reports no planning time
    else:
        name = f"delta-{delta}"
        persistent_kernel = True
    deployment = Deployment(graph, mapping,
                            persistent_kernel=persistent_kernel,
                            name=name)
    result = common.measure(engine.session(deployment), spec,
                            batch_size=64, batch_count=batch_count,
                            branch_profile=profile)
    return [AblationRow(
        study=study, variant=variant,
        throughput_gbps=result.throughput_gbps,
        latency_ms=result.latency_ms,
        planning_seconds=planning,
    )]


def _study_grid(study: str) -> List[dict]:
    """The grid entries of one ablation study."""
    if study == "reorganization":
        return [{"study": study, "variant": name,
                 "parallelization": parallelization,
                 "synthesis": synthesis}
                for name, parallelization, synthesis in _REORG_VARIANTS]
    if study == "partition_algorithm":
        return [{"study": study, "variant": algorithm}
                for algorithm in ("kl", "agglomerative")]
    if study == "persistent_kernel":
        return [{"study": study,
                 "variant": ("persistent" if persistent
                             else "per-batch-launch"),
                 "persistent": persistent}
                for persistent in (True, False)]
    if study == "expansion_delta":
        return [{"study": study, "variant": f"delta={delta:g}",
                 "delta": delta}
                for delta in DELTAS]
    raise ValueError(f"unknown ablation study {study!r}")


def sweep_spec(quick: bool = True,
               studies: Sequence[str] = STUDIES) -> common.SweepSpec:
    """The combined ablation grid as a runnable sweep."""
    return common.SweepSpec(
        name="ablations",
        point=_ablation_point,
        grid=[entry for study in studies
              for entry in _study_grid(study)],
        params={"batch_count": 60 if quick else 150},
    )


def main(quick: bool = True, runner=None) -> str:
    """Render all ablation results as one table."""
    rows = common.run_sweep(sweep_spec(quick), runner)
    return common.format_table(
        ["study", "variant", "Gbps", "latency ms", "planning s"],
        [[r.study, r.variant, r.throughput_gbps, r.latency_ms,
          r.planning_seconds] for r in rows],
        title="Ablations over NFCompass design choices",
    )


if __name__ == "__main__":
    print(main(quick=False))
