"""Fig. 6 — performance variation by the fraction of offloading.

Sweeps the offload ratio from 0 % (CPU only) to 100 % (GPU only) in
10 % steps for the three characterization NFs (IPv4 forwarding, IPsec
encryption, DPI) under the *un-optimized* offloading framework
(per-batch kernel launch/teardown, no persistent kernels).

Paper findings to reproduce: the best ratio differs per NF, and for
IPsec it is interior (~70 %) — full offload saturates the GPU while
the CPU idles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments import common
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.engine import SimulationEngine
from repro.sim.mapping import Deployment
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

NF_TYPES = ("ipv4", "ipsec", "dpi")
RATIOS = tuple(round(0.1 * i, 1) for i in range(11))


@dataclass
class Fig6Row:
    nf_type: str
    offload_ratio: float
    throughput_gbps: float


def _measure_point(nf_type: str, offload_ratio: float,
                   packet_size: int, batch_size: int,
                   batch_count: int) -> List[Fig6Row]:
    """One sweep point: one NF at one offload ratio."""
    engine = SimulationEngine()
    spec = TrafficSpec(size_law=FixedSize(packet_size),
                       offered_gbps=80.0)
    graph = ServiceFunctionChain([make_nf(nf_type)]).concatenated_graph()
    mapping = common.dedicated_core_mapping(
        graph, offload_ratio=offload_ratio
    )
    deployment = Deployment(
        graph, mapping, persistent_kernel=False,
        name=f"{nf_type}@{offload_ratio:.0%}",
    )
    report = engine.session(deployment).run(
        common.saturated(spec),
        batch_size=batch_size, batch_count=batch_count,
    )
    return [Fig6Row(
        nf_type=nf_type,
        offload_ratio=offload_ratio,
        throughput_gbps=report.throughput_gbps,
    )]


def sweep_spec(quick: bool = True,
               nf_types: Sequence[str] = NF_TYPES,
               ratios: Sequence[float] = RATIOS,
               packet_size: int = 64,
               batch_size: int = 64) -> common.SweepSpec:
    """The Fig. 6 parameter grid as a runnable sweep."""
    return common.SweepSpec(
        name="fig06.offload_ratio",
        point=_measure_point,
        row_type=Fig6Row,
        grid=[{"nf_type": nf_type, "offload_ratio": ratio}
              for nf_type in nf_types for ratio in ratios],
        params={"packet_size": packet_size, "batch_size": batch_size,
                "batch_count": 60 if quick else 200},
        context=common.sweep_context(),
    )


def run(quick: bool = True,
        nf_types: Sequence[str] = NF_TYPES,
        ratios: Sequence[float] = RATIOS,
        packet_size: int = 64,
        batch_size: int = 64, runner=None) -> List[Fig6Row]:
    """Sweep offload ratios for each NF; returns one row per point."""
    return common.run_sweep(
        sweep_spec(quick=quick, nf_types=nf_types, ratios=ratios,
                   packet_size=packet_size, batch_size=batch_size),
        runner=runner,
    )


def best_ratios(rows: List[Fig6Row]) -> Dict[str, float]:
    """The throughput-maximizing ratio per NF."""
    best: Dict[str, Fig6Row] = {}
    for row in rows:
        current = best.get(row.nf_type)
        if current is None or row.throughput_gbps > current.throughput_gbps:
            best[row.nf_type] = row
    return {nf: r.offload_ratio for nf, r in best.items()}


def main(quick: bool = True, runner=None) -> str:
    """Render the Fig. 6 table, per-NF sparklines, and best ratios."""
    rows = run(quick=quick, runner=runner)
    table = common.format_table(
        ["NF", "offload ratio", "Gbps"],
        [[r.nf_type, f"{r.offload_ratio:.0%}", r.throughput_gbps]
         for r in rows],
        title="Fig. 6 — throughput vs offload fraction "
              "(per-batch kernel launches)",
    )
    best = best_ratios(rows)
    from repro.experiments.plots import sparkline
    curves = []
    for nf_type in dict.fromkeys(r.nf_type for r in rows):
        series = [r.throughput_gbps for r in rows
                  if r.nf_type == nf_type]
        curves.append(f"  {nf_type:6s} 0%..100%: {sparkline(series)}")
    notes = ["throughput vs offload ratio:"] + curves + [
        f"best ratio per NF: {best} "
        "(paper: best ratio varies per NF; IPsec interior ~70%)"
    ]
    return table + "\n" + "\n".join(notes)


if __name__ == "__main__":
    print(main(quick=False))
