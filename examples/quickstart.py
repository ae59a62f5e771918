"""Quickstart: deploy a service function chain with NFCompass.

Builds the paper's motivating telco chain (Fig. 2: firewall -> DPI ->
load balancer), lets NFCompass re-organize and place it on the modelled
CPU+GPU server, and compares the result against a naive CPU-only
deployment.

Run:  python examples/quickstart.py
"""

from repro.baselines.policies import CPUOnlyBaseline
from repro.core.compass import NFCompass
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.traffic.distributions import IMIXSize
from repro.traffic.generator import TrafficSpec


def main() -> None:
    platform = PlatformSpec.paper_testbed()
    spec = TrafficSpec(size_law=IMIXSize(), offered_gbps=40.0, seed=1)

    # The Fig. 2 chain: user traffic traverses firewall, DPI, LB.
    sfc = ServiceFunctionChain(
        [make_nf("firewall"), make_nf("dpi"), make_nf("lb")],
        name="telco-chain",
    )
    print(f"Service function chain: {sfc.describe()}")
    print(f"Naive chain length: {sfc.length} NFs\n")

    # --- NFCompass: parallelize, synthesize, allocate -----------------
    compass = NFCompass(platform=platform)
    plan = compass.deploy(sfc, spec, batch_size=64)
    print(plan.describe())
    print()

    report = compass.engine.session(plan.deployment).run(spec, batch_size=64,
                                                         batch_count=150)
    print("NFCompass   :", report.summary())

    # --- baseline: everything on CPU, no re-organization --------------
    baseline_sfc = ServiceFunctionChain(
        [make_nf("firewall"), make_nf("dpi"), make_nf("lb")],
        name="telco-chain",
    )
    baseline = CPUOnlyBaseline(platform=platform)
    deployment = baseline.deploy(baseline_sfc, spec, batch_size=64)
    baseline_report = compass.engine.session(deployment).run(spec,
                                                             batch_size=64,
                                                             batch_count=150)
    print("CPU baseline:", baseline_report.summary())

    speedup = (report.throughput_gbps
               / max(1e-9, baseline_report.throughput_gbps))
    print(f"\nNFCompass throughput gain over the naive deployment: "
          f"{speedup:.2f}x")


if __name__ == "__main__":
    main()
