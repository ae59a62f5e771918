"""Fig. 7 — GPU acceleration offset by increasing SFC length.

Four chains of growing length — (A) IPsec, (B) IPsec + IPv4,
(C) firewall + IPv4 + IPsec, (D) IPv4 + IPsec + IDS — each run under
three offloading policies: CPU only, GPU only, and a one-size-fits-all
70 % offload ratio.

Paper finding: no single offload ratio is consistently best, and the
relative GPU acceleration shrinks as the chain lengthens (aggregated
offloading overheads: every offloaded element pays its own kernel
launches and PCIe round trips).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments import common
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.engine import SimulationEngine
from repro.sim.mapping import Deployment
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

CASES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("A", ("ipsec",)),
    ("B", ("ipsec", "ipv4")),
    ("C", ("firewall", "ipv4", "ipsec")),
    ("D", ("ipv4", "ipsec", "ids")),
)

POLICIES: Tuple[Tuple[str, float], ...] = (
    ("cpu-only", 0.0),
    ("gpu-only", 1.0),
    ("70%-offload", 0.7),
)

PACKET_SIZE = 64


@dataclass
class Fig7Row:
    case: str
    chain: str
    policy: str
    throughput_gbps: float


def _measure_point(case: str, nf_types: Sequence[str], policy: str,
                   offload_ratio: float, packet_size: int,
                   batch_size: int, batch_count: int) -> List[Fig7Row]:
    """One sweep point: one (chain case, offload policy) pair."""
    engine = SimulationEngine()
    spec = TrafficSpec(size_law=FixedSize(packet_size),
                       offered_gbps=80.0)
    sfc = ServiceFunctionChain([make_nf(t) for t in nf_types])
    graph = sfc.concatenated_graph()
    mapping = common.dedicated_core_mapping(
        graph, offload_ratio=offload_ratio, gpus=("gpu0", "gpu1")
    )
    deployment = Deployment(
        graph, mapping, persistent_kernel=False,
        name=f"{case}:{policy}",
    )
    report = engine.session(deployment).run(
        common.saturated(spec),
        batch_size=batch_size, batch_count=batch_count,
    )
    return [Fig7Row(
        case=case,
        chain="+".join(nf_types),
        policy=policy,
        throughput_gbps=report.throughput_gbps,
    )]


def sweep_spec(quick: bool = True,
               cases: Sequence = CASES) -> common.SweepSpec:
    """The Fig. 7 parameter grid as a runnable sweep."""
    return common.SweepSpec(
        name="fig07.sfc_length",
        point=_measure_point,
        grid=[{"case": case_id, "nf_types": tuple(nf_types),
               "policy": policy, "offload_ratio": ratio}
              for case_id, nf_types in cases
              for policy, ratio in POLICIES],
        params={"packet_size": PACKET_SIZE,
                "batch_size": common.BATCH_SIZE,
                "batch_count": 60 if quick else 200},
    )


def acceleration_by_case(rows: List[Fig7Row]) -> Dict[str, float]:
    """GPU-only / CPU-only throughput ratio per case."""
    by_case: Dict[str, Dict[str, float]] = {}
    for row in rows:
        by_case.setdefault(row.case, {})[row.policy] = row.throughput_gbps
    return {
        case: values.get("gpu-only", 0.0) / max(1e-9,
                                                values.get("cpu-only", 0.0))
        for case, values in by_case.items()
    }


def main(quick: bool = True, runner=None) -> str:
    """Render the Fig. 7 table and per-case acceleration notes."""
    rows = common.run_sweep(sweep_spec(quick), runner)
    table = common.format_table(
        ["case", "chain", "policy", "Gbps"],
        [[r.case, r.chain, r.policy, r.throughput_gbps] for r in rows],
        title="Fig. 7 — acceleration offset with SFC length",
    )
    accel = acceleration_by_case(rows)
    notes = [
        "GPU/CPU acceleration per case: "
        + ", ".join(f"{c}: {a:.2f}x" for c, a in sorted(accel.items()))
        + "  (paper: acceleration shrinks as the chain lengthens)"
    ]
    return table + "\n" + "\n".join(notes)


if __name__ == "__main__":
    print(main(quick=False))
