"""Figs. 13/14 — effectiveness of SFC re-organization.

Three SFCs of four identical NFs each (firewall, IPsec, IDS) are
deployed in four configurations (Fig. 13):

- **a** — sequential chain (effective length 4);
- **b** — fully parallel, 4 branches (effective length 1);
- **c** — two stages of two branches (effective length 2);
- **d** — configuration c after NF synthesis (the merged graph).

Each runs on a CPU-only platform and a GPU platform (full offload of
offloadable elements).  The identical NFs are independent tenant
instances, so the orchestrator uses the identical-NF independence
override when forming stages.

A sweep point is one (NF, platform) group.  It deploys each
configuration once and runs its saturated capacity, then runs every
configuration's latency on the same session at the group's shared
load.

Paper findings to reproduce: parallelization cuts latency (up to 24 %
for the firewall and 54 % for IDS on CPU; up to 79 % on GPU) with
under 10 % throughput loss; synthesis (d) beats pure branching (b/c)
in both latency (12–30 % lower) and throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.orchestrator import (
    SFCOrchestrator,
    assume_identical_nfs_independent,
)
from repro.core.synthesizer import NFSynthesizer
from repro.elements.graph import ElementGraph
from repro.experiments import common
from repro.nf.base import NetworkFunction, ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.mapping import Deployment
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

NF_TYPES = ("firewall", "ipsec", "ids")
CONFIGS = ("a", "b", "c", "d")
PLATFORMS = ("cpu", "gpu")


@dataclass
class Fig14Row:
    nf_type: str
    config: str
    platform: str
    effective_length: int
    throughput_gbps: float
    latency_ms: float


def _make_chain(nf_type: str) -> ServiceFunctionChain:
    """Four identical tenant instances of one NF type.

    The firewall is the paper's *simple* NF ("the rules are modified
    to never drop"), so it gets a small ACL; IDS and IPsec are the
    complex ones (pattern matching / encryption).
    """
    kwargs = {}
    if nf_type == "firewall":
        from repro.traffic.acl import generate_acl
        kwargs["rules"] = generate_acl(64, deny_fraction=0.0)
    nfs: List[NetworkFunction] = [
        make_nf(nf_type, name=f"{nf_type}-{i}", **kwargs)
        for i in range(4)
    ]
    return ServiceFunctionChain(nfs, name=f"4x{nf_type}")


def build_config(nf_type: str, config: str) -> Tuple[ElementGraph, int]:
    """Build the Fig. 13 configuration graph; return (graph, length)."""
    sfc = _make_chain(nf_type)
    orchestrator = SFCOrchestrator(
        independence_override=assume_identical_nfs_independent
    )
    if config == "a":
        return sfc.concatenated_graph(), 4
    if config == "b":
        plan = orchestrator.analyze(sfc)
        graph = orchestrator.build_stage_graph(plan.stages,
                                               name=f"{sfc.name}/b")
        return graph, plan.effective_length
    if config == "c":
        plan = orchestrator.analyze(sfc, max_width=2)
        graph = orchestrator.build_stage_graph(plan.stages,
                                               name=f"{sfc.name}/c")
        return graph, plan.effective_length
    if config == "d":
        # Fig. 13(d): NF merging applied to configuration c — the two
        # pipelined NFs of each branch are synthesized into a single
        # NF, so the structure becomes ONE stage of two merged
        # branches (effective length 1, parallelism 2).
        synthesizer = NFSynthesizer()
        branches = []
        for index, pair in enumerate((sfc.nfs[:2], sfc.nfs[2:])):
            pair_chain = ServiceFunctionChain(
                pair, name=f"{sfc.name}/pair{index}"
            )
            merged, _report = synthesizer.synthesize(
                pair_chain.concatenated_graph()
            )
            branches.append(_PrebuiltNF(merged,
                                        name=f"{nf_type}-merged{index}"))
        graph = orchestrator.build_stage_graph([branches],
                                               name=f"{sfc.name}/d")
        return graph, 1
    raise ValueError(f"unknown config {config!r}")


class _PrebuiltNF(NetworkFunction):
    """Wrap an already-built element graph as an NF for staging."""

    nf_type = "prebuilt"

    def __init__(self, graph: ElementGraph, name: str):
        super().__init__(name=name, with_io=False)
        self._graph = graph


def _traffic() -> TrafficSpec:
    return TrafficSpec(size_law=FixedSize(64), protocol="tcp",
                       offered_gbps=40.0)


def _prepare(nf_type: str, config: str, platform: str, batch_size: int):
    """Build (effective_length, profile, session) for a configuration."""
    from repro.sim.engine import BranchProfile

    graph, effective_length = build_config(nf_type, config)
    # Runtime profiling: the engine needs measured drop/port fractions
    # (notably the XorMerge's duplicate collapse).
    profile = BranchProfile.measure(
        graph.clone(), _traffic(), sample_packets=192,
        batch_size=batch_size,
    )
    ratio = 1.0 if platform == "gpu" else 0.0
    mapping = common.dedicated_core_mapping(
        graph, offload_ratio=ratio, gpus=("gpu0", "gpu1")
    )
    deployment = Deployment(
        graph, mapping, persistent_kernel=False,
        name=f"{nf_type}/{config}/{platform}",
    )
    session = common.make_engine().session(deployment)
    return effective_length, profile, session


def _group_point(nf_type: str, platform: str, configs: Sequence[str],
                 batch_size: int, batch_count: int) -> List[Fig14Row]:
    """One (NF, platform) group: every configuration's capacity, then
    its latency at the group's shared load.

    Latency must be compared at a *common* offered load — comparing
    each configuration at a fraction of its own capacity would load
    faster configurations harder.  The shared load is 85 % of the
    slowest configuration's capacity in the group.  Each configuration
    is deployed once; its capacity and latency runs share the session.
    """
    deployed = []
    for config in configs:
        effective_length, profile, session = _prepare(
            nf_type, config, platform, batch_size
        )
        capacity = session.run(
            common.saturated(_traffic()),
            batch_size=batch_size, batch_count=batch_count,
            branch_profile=profile,
        ).throughput_gbps
        deployed.append((config, effective_length, profile, session,
                         capacity))
    shared_load = 0.85 * min(capacity for *_, capacity in deployed)
    loaded = common.at_load(_traffic(), max(0.05, shared_load))
    rows = []
    for config, effective_length, profile, session, capacity in deployed:
        latency_report = session.run(
            loaded, batch_size=batch_size, batch_count=batch_count,
            branch_profile=profile,
        )
        rows.append(Fig14Row(
            nf_type=nf_type,
            config=config,
            platform=platform,
            effective_length=effective_length,
            throughput_gbps=capacity,
            latency_ms=latency_report.latency.mean_ms,
        ))
    return rows


def sweep_spec(quick: bool = True,
               nf_types: Sequence[str] = NF_TYPES,
               configs: Sequence[str] = CONFIGS,
               batch_size: int = 64) -> common.SweepSpec:
    """One point per (NF, platform) group; rows come in
    (NF, platform, configuration) order."""
    return common.SweepSpec(
        name="fig14.group",
        point=_group_point,
        row_type=Fig14Row,
        grid=[{"nf_type": nf_type, "platform": platform_kind}
              for nf_type in nf_types
              for platform_kind in PLATFORMS],
        params={"configs": tuple(configs),
                "batch_size": batch_size,
                "batch_count": 50 if quick else 150},
        context=common.sweep_context(traffic=_traffic()),
    )


def run(quick: bool = True,
        nf_types: Sequence[str] = NF_TYPES,
        configs: Sequence[str] = CONFIGS,
        batch_size: int = 64, jobs: int = 1,
        runner=None) -> List[Fig14Row]:
    """Every configuration's capacity and shared-load latency."""
    return common.run_sweep(
        sweep_spec(quick=quick, nf_types=nf_types, configs=configs,
                   batch_size=batch_size),
        jobs=jobs, runner=runner,
    )


def latency_reduction(rows: List[Fig14Row], nf_type: str,
                      platform: str, config: str,
                      baseline: str = "a") -> float:
    """Fractional latency reduction of ``config`` vs ``baseline``."""
    lookup: Dict[Tuple[str, str, str], Fig14Row] = {
        (r.nf_type, r.platform, r.config): r for r in rows
    }
    base = lookup.get((nf_type, platform, baseline))
    target = lookup.get((nf_type, platform, config))
    if base is None or target is None or base.latency_ms <= 0:
        return 0.0
    return 1.0 - target.latency_ms / base.latency_ms


def main(quick: bool = True, jobs: int = 1, runner=None) -> str:
    """Render the Fig. 14 table and latency-reduction notes."""
    rows = run(quick=quick, jobs=jobs, runner=runner)
    table = common.format_table(
        ["NF", "config", "platform", "eff.len", "Gbps", "latency ms"],
        [[r.nf_type, r.config, r.platform, r.effective_length,
          r.throughput_gbps, r.latency_ms] for r in rows],
        title="Fig. 14 — SFC re-organization configurations",
    )
    notes = []
    for nf_type in NF_TYPES:
        for platform_kind in PLATFORMS:
            reduction_b = latency_reduction(rows, nf_type, platform_kind,
                                            "b")
            reduction_d = latency_reduction(rows, nf_type, platform_kind,
                                            "d")
            notes.append(
                f"{nf_type}/{platform_kind}: latency reduction "
                f"b vs a = {reduction_b:.0%}, d vs a = {reduction_d:.0%}"
            )
    notes.append("(paper: firewall up to 24 % on CPU, IDS up to 54 % on "
                 "CPU and 79 % on GPU; config d best overall)")
    return table + "\n" + "\n".join(notes)


if __name__ == "__main__":
    print(main(quick=False))
