"""Build a custom NF and let NFCompass schedule it.

Shows the extension path a downstream user takes: define a new
offloadable element (a toy token scrubber), wrap it into a
NetworkFunction with a Table II action profile, chain it with catalog
NFs, and deploy through the full NFCompass pipeline.  Because the
scrubber only *reads* payloads, the orchestrator parallelizes it with
the IDS; because it is offloadable and compute-heavy, GTA offloads it.

Run:  python examples/custom_nf.py
"""

from typing import Dict, Hashable, Optional

from repro.core.compass import NFCompass
from repro.elements.element import ActionProfile, TrafficClass
from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement, OffloadTraits
from repro.elements.standard import CheckIPHeader
from repro.hw.platform import PlatformSpec
from repro.net.batch import PacketBatch
from repro.nf.base import NetworkFunction, ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.traffic.distributions import IMIXSize
from repro.traffic.generator import TrafficSpec


class TokenScan(OffloadableElement):
    """Scan payloads for leaked credential-shaped tokens (read-only)."""

    traffic_class = TrafficClass.OBSERVER
    actions = ActionProfile(reads_payload=True)
    idempotent = True
    traits = OffloadTraits(
        h2d_bytes_per_packet=1.0,   # whole payload to the device
        d2h_bytes_per_packet=0.01,  # verdict bits back
        relative=True,
        divergent=True,
        compute_intensity=2.0,
    )

    TOKEN_PREFIXES = (b"AKIA", b"sk-", b"ghp_")

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name)
        self.findings = 0

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        for packet in batch.live_packets:
            if any(prefix in packet.payload
                   for prefix in self.TOKEN_PREFIXES):
                packet.annotations["leaked_token"] = True
                self.findings += 1
        return {0: batch}

    def signature(self) -> Hashable:
        return ("TokenScan", self.TOKEN_PREFIXES)


class TokenScanner(NetworkFunction):
    """The custom NF: check headers, then scan payloads."""

    nf_type = "tokenscan"
    actions = ActionProfile(reads_header=True, reads_payload=True)

    def build_core(self) -> ElementGraph:
        graph = ElementGraph(name=f"{self.name}/core")
        graph.chain(
            CheckIPHeader(name=f"{self.name}/check"),
            TokenScan(name=f"{self.name}/scan"),
        )
        return graph


def main() -> None:
    platform = PlatformSpec.paper_testbed()
    spec = TrafficSpec(size_law=IMIXSize(), offered_gbps=40.0, seed=8)

    sfc = ServiceFunctionChain(
        [make_nf("firewall"), TokenScanner(), make_nf("ids")],
        name="fw-tokenscan-ids",
    )
    compass = NFCompass(platform=platform)
    plan = compass.deploy(sfc, spec, batch_size=64)
    print(plan.describe())

    # The dependency analysis itself (the profile-guided deploy may
    # still choose the sequential structure when the duplication/merge
    # cost outweighs the shorter pipeline for this traffic).
    analysis = compass.orchestrator.analyze(sfc)
    stages = analysis.stages
    print(f"\nTable III analysis: the read-only scanner is "
          f"parallelizable into stage 1 alongside "
          f"{len(stages[0]) - 1} other NF(s): "
          f"{[nf.name for nf in stages[0]]}")
    chosen = ("parallelized" if plan.parallel_plan is not None
              else "sequential (branch overhead outweighed the gain "
                   "for this traffic)")
    print(f"Profile-guided deploy chose the {chosen} structure.")

    ratios = {node: ratio
              for node, ratio in plan.allocation_report.offload_ratios.items()
              if "scan" in node}
    print(f"GTA offload decision for the scanner element: {ratios}")

    report = compass.engine.session(plan.deployment).run(spec, batch_size=64,
                                                         batch_count=120)
    print("\nSimulated deployment:", report.summary())


if __name__ == "__main__":
    main()
