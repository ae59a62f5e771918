"""Characterize an NF's CPU/GPU offload trade-off (the Fig. 6 study).

Sweeps the offload ratio for a chosen NF and reports the throughput
curve and the best ratio — the experiment that motivates NFCompass's
fine-grained expansion: the optimum is NF-specific and often interior.

Run:  python examples/offload_tuning.py [nf_type]
      (nf_type: ipv4 | ipv6 | ipsec | dpi | ids ... default ipsec)
"""

import sys

from repro.experiments import common
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import NF_CATALOG, make_nf
from repro.sim.engine import SimulationEngine
from repro.sim.mapping import Deployment
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec


def sweep(nf_type: str, packet_size: int = 64,
          batch_size: int = 64) -> None:
    engine = SimulationEngine()
    spec = TrafficSpec(size_law=FixedSize(packet_size),
                       offered_gbps=80.0)
    graph = ServiceFunctionChain([make_nf(nf_type)]).concatenated_graph()

    print(f"Offload-ratio sweep for {nf_type!r} "
          f"({packet_size}B packets, batch {batch_size}):\n")
    print(f"{'ratio':>6}  {'Gbps':>7}  {'Mpps':>6}  bar")
    best_ratio, best_gbps = 0.0, 0.0
    for step in range(11):
        ratio = step / 10
        mapping = common.dedicated_core_mapping(graph,
                                                offload_ratio=ratio)
        deployment = Deployment(graph, mapping, persistent_kernel=False,
                                name=f"{nf_type}@{ratio:.0%}")
        report = engine.session(deployment).run(common.saturated(spec),
                                                batch_size=batch_size,
                                                batch_count=120)
        bar = "#" * int(report.throughput_gbps * 12)
        print(f"{ratio:>6.0%}  {report.throughput_gbps:>7.2f}  "
              f"{report.throughput_mpps:>6.2f}  {bar}")
        if report.throughput_gbps > best_gbps:
            best_ratio, best_gbps = ratio, report.throughput_gbps
    print(f"\nBest offload ratio for {nf_type}: {best_ratio:.0%} "
          f"({best_gbps:.2f} Gbps)")
    print("(The paper finds the optimum is NF-specific — IPsec peaks "
          "around 70-80%, IPv4 prefers partial/no offload.)")


def main() -> None:
    nf_type = sys.argv[1] if len(sys.argv) > 1 else "ipsec"
    if nf_type not in NF_CATALOG:
        raise SystemExit(
            f"unknown NF {nf_type!r}; choose from {sorted(NF_CATALOG)}"
        )
    sweep(nf_type)


if __name__ == "__main__":
    main()
