"""Fig. 8 — characterization of network functions.

(a–d) Throughput of IPv4/IPv6 forwarding, IPsec, and DPI on CPU and
GPU across packet batch sizes; DPI additionally across traffic match
profiles (full-match vs no-match).

(e) Co-running interference: pairwise throughput drops across five
typical NFs.

Paper findings to reproduce:

- throughput generally improves with batch size, but DPI's *CPU*
  throughput drops once batches exceed ~256 packets (cache spill);
- DPI no-match traffic is 4–5x faster than full-match;
- IDS is the most interference-sensitive NF (22.2 % average pairwise
  drop); the firewall is the least sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments import common
from repro.hw.interference import InterferenceModel
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.engine import SimulationEngine
from repro.sim.mapping import Deployment
from repro.traffic.dpi_profiles import MatchProfile
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

BATCH_SIZES = (32, 64, 128, 256, 512, 1024)
COEXIST_NFS = ("ipv4", "ipsec", "ids", "firewall", "lb")


@dataclass
class BatchSweepRow:
    nf_type: str
    platform: str           # "cpu" | "gpu"
    batch_size: int
    match_profile: str
    throughput_gbps: float


@dataclass
class InterferenceRow:
    victim: str
    aggressor: str
    drop_fraction: float


def _batch_point(nf_type: str, platform: str, match_profile: str,
                 batch_size: int, packet_size: int,
                 batch_count: int) -> List[BatchSweepRow]:
    """One sweep point: one NF on one platform at one batch size."""
    engine = SimulationEngine()
    profile = MatchProfile(match_profile)
    spec = TrafficSpec(
        size_law=FixedSize(packet_size),
        offered_gbps=80.0,
        ip_version=6 if nf_type == "ipv6" else 4,
        match_profile=profile,
    )
    graph = ServiceFunctionChain([make_nf(nf_type)]).concatenated_graph()
    mapping = common.dedicated_core_mapping(
        graph, offload_ratio=0.0 if platform == "cpu" else 1.0
    )
    deployment = Deployment(
        graph, mapping, persistent_kernel=False,
        name=f"{nf_type}-{platform}",
    )
    report = engine.session(deployment).run(
        common.saturated(spec),
        batch_size=batch_size, batch_count=batch_count,
    )
    return [BatchSweepRow(
        nf_type=nf_type,
        platform=platform,
        batch_size=batch_size,
        match_profile=profile.value,
        throughput_gbps=report.throughput_gbps,
    )]


def batch_sweep_spec(quick: bool = True,
                     nf_types: Sequence[str] = ("ipv4", "ipv6",
                                                "ipsec", "dpi"),
                     batch_sizes: Sequence[int] = BATCH_SIZES,
                     packet_size: int = 256) -> common.SweepSpec:
    """The Fig. 8(a–d) parameter grid as a runnable sweep."""
    grid = []
    for nf_type in nf_types:
        profiles = ([MatchProfile.NO_MATCH, MatchProfile.FULL_MATCH]
                    if nf_type == "dpi"
                    else [MatchProfile.PARTIAL_MATCH])
        for profile in profiles:
            for platform_kind in ("cpu", "gpu"):
                for batch_size in batch_sizes:
                    grid.append({
                        "nf_type": nf_type,
                        "platform": platform_kind,
                        "match_profile": profile.value,
                        "batch_size": batch_size,
                    })
    return common.SweepSpec(
        name="fig08.batch_sweep",
        point=_batch_point,
        row_type=BatchSweepRow,
        grid=grid,
        params={"packet_size": packet_size,
                "batch_count": 40 if quick else 120},
        context=common.sweep_context(),
    )


def run_batch_sweep(quick: bool = True,
                    nf_types: Sequence[str] = ("ipv4", "ipv6",
                                               "ipsec", "dpi"),
                    batch_sizes: Sequence[int] = BATCH_SIZES,
                    packet_size: int = 256,
                    runner=None) -> List[BatchSweepRow]:
    """Fig. 8(a–d): batch-size sweeps per NF on CPU and GPU."""
    return common.run_sweep(
        batch_sweep_spec(quick=quick, nf_types=nf_types,
                         batch_sizes=batch_sizes,
                         packet_size=packet_size),
        runner=runner,
    )


def run_interference(nf_types: Sequence[str] = COEXIST_NFS
                     ) -> Tuple[List[InterferenceRow], Dict[str, float]]:
    """Fig. 8(e): pairwise drop matrix + per-victim averages."""
    model = InterferenceModel()
    rows: List[InterferenceRow] = []
    for victim in nf_types:
        for aggressor in nf_types:
            if victim == aggressor:
                continue
            rows.append(InterferenceRow(
                victim=victim,
                aggressor=aggressor,
                drop_fraction=model.pairwise_drop(victim, aggressor, "cpu"),
            ))
    averages = {
        victim: model.average_drop(victim, list(nf_types), "cpu")
        for victim in nf_types
    }
    return rows, averages


def dpi_match_gap(rows: List[BatchSweepRow]) -> float:
    """no-match / full-match CPU throughput ratio at batch 64."""
    lookup = {
        (r.match_profile, r.platform, r.batch_size): r.throughput_gbps
        for r in rows if r.nf_type == "dpi"
    }
    full = lookup.get(("full_match", "cpu", 64))
    none = lookup.get(("no_match", "cpu", 64))
    if not full or not none:
        return 0.0
    return none / full


def dpi_cpu_knee(rows: List[BatchSweepRow]) -> bool:
    """True if DPI full-match CPU throughput drops past batch 256."""
    series = sorted(
        (r.batch_size, r.throughput_gbps) for r in rows
        if r.nf_type == "dpi" and r.platform == "cpu"
        and r.match_profile == "full_match"
    )
    if not series:
        return False
    peak_batch = max(series, key=lambda item: item[1])[0]
    return peak_batch <= 256 and series[-1][1] < max(s[1] for s in series)


def main(quick: bool = True, runner=None) -> str:
    """Render all Fig. 8 artifacts: sweeps, matrix, headline checks."""
    from repro.experiments.plots import bar_chart, sparkline
    sweep = run_batch_sweep(quick=quick, runner=runner)
    matrix, averages = run_interference()
    curves = []
    keys = dict.fromkeys((r.nf_type, r.platform, r.match_profile)
                         for r in sweep)
    for nf_type, platform_kind, profile in keys:
        series = [r.throughput_gbps for r in sweep
                  if (r.nf_type, r.platform, r.match_profile)
                  == (nf_type, platform_kind, profile)]
        label = f"{nf_type}/{platform_kind}" + (
            f"/{profile}" if nf_type == "dpi" else ""
        )
        curves.append(f"  {label:28s} batch 32..1024: "
                      f"{sparkline(series)}")
    parts = [
        common.format_table(
            ["NF", "platform", "batch", "profile", "Gbps"],
            [[r.nf_type, r.platform, r.batch_size, r.match_profile,
              r.throughput_gbps] for r in sweep],
            title="Fig. 8(a-d) — batch-size characterization",
        ),
        "throughput vs batch size:\n" + "\n".join(curves),
        common.format_table(
            ["victim", "aggressor", "drop"],
            [[r.victim, r.aggressor, f"{r.drop_fraction:.1%}"]
             for r in matrix],
            title="Fig. 8(e) — pairwise co-run throughput drop (CPU)",
        ),
        bar_chart(
            [(victim, average * 100) for victim, average
             in averages.items()],
            title="average pairwise drop per victim (%)", unit="%",
        ),
        "average pairwise drop per victim: "
        + ", ".join(f"{v}: {a:.1%}" for v, a in averages.items())
        + "  (paper: IDS worst at 22.2 %, firewall least sensitive)",
        f"DPI no-match vs full-match CPU gap at batch 64: "
        f"{dpi_match_gap(sweep):.1f}x (paper: 4-5x)",
        f"DPI full-match CPU knee at/below batch 256: "
        f"{dpi_cpu_knee(sweep)} (paper: drop past 256)",
    ]
    return "\n\n".join(parts)


if __name__ == "__main__":
    print(main(quick=False))
