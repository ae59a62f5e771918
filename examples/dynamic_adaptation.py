"""Dynamic task adaptation under shifting traffic.

The paper's runtime profiles traffic continuously and notes that
static partitions need "dynamic task adaption" when traffic changes.
This example drives an IPsec+IDS chain through three traffic phases —
small packets, a shift to large packets, then back — and shows the
AdaptiveRuntime re-planning exactly when the drift detector fires,
with hysteresis absorbing the flip-flop.

Run:  python examples/dynamic_adaptation.py
"""

from repro.core.adaptation import AdaptiveRuntime
from repro.core.compass import NFCompass
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec


def phase(size: int) -> TrafficSpec:
    return TrafficSpec(size_law=FixedSize(size), offered_gbps=40.0,
                       seed=6)


def main() -> None:
    compass = NFCompass(platform=PlatformSpec.paper_testbed())
    sfc = ServiceFunctionChain([make_nf("ipsec"), make_nf("ids")])
    runtime = AdaptiveRuntime(compass, sfc, phase(64), batch_size=32,
                              drift_threshold=0.25, cooldown_epochs=1)

    schedule = [
        ("small 64B", phase(64)),
        ("small 64B", phase(64)),
        ("SHIFT to 1500B", phase(1500)),
        ("large 1500B", phase(1500)),
        ("large 1500B", phase(1500)),
        ("SHIFT back to 64B", phase(64)),
        ("small 64B", phase(64)),
    ]

    print(f"{'epoch':>5}  {'phase':<18}  {'drift':>6}  {'replan':>6}  "
          f"{'Gbps':>7}  {'lat ms':>7}")
    for label, spec in schedule:
        result = runtime.step(spec, batch_count=60)
        print(f"{result.epoch:>5}  {label:<18}  {result.drift:>6.2f}  "
              f"{'YES' if result.replanned else '-':>6}  "
              f"{result.report.throughput_gbps:>7.2f}  "
              f"{result.report.latency.mean_ms:>7.3f}")

    print(f"\nTotal re-plans: {runtime.replans} "
          "(drift detector + cooldown hysteresis)")


if __name__ == "__main__":
    main()
