"""Figs. 16/17 — validation on a real service function chain.

The chain of Fig. 16: firewall (ClassBench-style ACL) -> IP router ->
NAT, with ACLs of 200 / 1 000 / 10 000 rules and packet sizes of
64 / 128 / 1500 bytes.  Systems compared:

- **FastClick** — CPU-only batched Click; each NF keeps its own
  classification tree, whose footprint grows with the ACL;
- **NBA** — per-element adaptive GPU offloading, same per-NF
  classification trees, per-batch kernel launches;
- **NFCompass** — full pipeline: SFC parallelization + NF synthesis +
  GTA with persistent kernels; its synthesized classification uses
  tuple-space search, whose cost grows with distinct prefix-length
  pairs rather than rules.

Paper findings to reproduce: at ACL 200 all three are comparable; at
1 000/10 000 rules FastClick loses 38 %/84 % and NBA 32 %/73 % of
their throughput while NFCompass stays nearly flat, with 1.4–9x lower
average latency and 2.9–4.3x lower latency variance.

A sweep point is one grid cell, ``(acl_rules, packet_size)``.  It
generates the cell's ACL and FIB once and builds each system's own
chain over them (tree matchers for the baselines, tuple-space search
for NFCompass).  Each system is deployed once; its saturated capacity
run and then its latency run share that deployment's session.

Latency is compared at one offered load per packet size: 80 % of the
slowest system's capacity at the smallest ACL, kept constant as the
ACL grows — the paper's methodology, where the same traffic drives
every ACL size.  A system whose capacity collapses below that load
overloads and its latency explodes (FastClick's "order of magnitude"
at ACL 10000).  So the smallest-ACL cells run first (phase 1) and set
their packet size's load themselves; every other cell (phase 2) takes
its load as a grid parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, \
    Tuple

from repro.baselines.fastclick import FastClickBaseline
from repro.baselines.nba import NBABaseline
from repro.core.compass import NFCompass
from repro.experiments import common
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.nf.firewall import Firewall
from repro.nf.ipv4 import IPv4Forwarder, LPMTrie
from repro.nf.nat import NetworkAddressTranslator
from repro.sim.engine import SimulationEngine
from repro.sim.kernel import SimulationSession
from repro.traffic.acl import AclRule, generate_acl
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

ACL_SIZES = (200, 1000, 10000)
PACKET_SIZES = (64, 128, 1500)
SYSTEMS = ("fastclick", "nba", "nfcompass")


@dataclass
class Fig17Row:
    system: str
    acl_rules: int
    packet_size: int
    throughput_gbps: float
    latency_ms: float
    latency_std_us: float


def _prepare(system: str, tag: str, rules: List[AclRule], fib: LPMTrie,
             spec: TrafficSpec, batch_size: int) -> SimulationSession:
    """Deploy one system's own firewall -> router -> NAT chain over the
    cell's shared ACL and FIB; returns the deployment's session (for
    NFCompass, the one its plan carries)."""
    matcher_kind = "tuple_space" if system == "nfcompass" else "tree"
    sfc = ServiceFunctionChain(
        [
            Firewall(rules=rules, matcher_kind=matcher_kind,
                     name=f"fw-{tag}"),
            IPv4Forwarder(table=fib, name=f"router-{tag}"),
            NetworkAddressTranslator(name=f"nat-{tag}"),
        ],
        name=f"fw{len(rules)}-router-nat",
    )
    platform = PlatformSpec()
    if system == "nfcompass":
        return NFCompass(platform=platform).deploy(
            sfc, spec, batch_size=batch_size).session
    if system == "fastclick":
        deployment = FastClickBaseline(platform=platform).deploy(
            sfc, spec, batch_size=batch_size)
    else:
        deployment = NBABaseline(platform=platform).deploy(
            sfc, spec, batch_size=batch_size)
    return SimulationEngine(platform).session(deployment)


def _fixed_load(capacities: Iterable[float]) -> float:
    """A packet size's latency load: 80 % of the slowest system's
    capacity at the smallest ACL."""
    return min(0.8 * capacity for capacity in capacities)


def _cell_point(acl_rules: int, packet_size: int, batch_size: int,
                batch_count: int,
                load_gbps: Optional[float] = None) -> List[Fig17Row]:
    """One cell: each system's capacity, then its latency at
    ``load_gbps``, by default the cell's own :func:`_fixed_load`."""
    rules = generate_acl(acl_rules, seed=acl_rules, deny_fraction=0.0)
    fib = LPMTrie.random_table()
    spec = TrafficSpec(size_law=FixedSize(packet_size), offered_gbps=40.0)
    sessions = [_prepare(system, f"{system}-{acl_rules}-{packet_size}",
                         rules, fib, spec, batch_size)
                for system in SYSTEMS]
    capacities = [session.run(common.saturated(spec),
                              batch_size=batch_size,
                              batch_count=batch_count).throughput_gbps
                  for session in sessions]
    if load_gbps is None:
        load_gbps = _fixed_load(capacities)
    loaded = common.at_load(spec, max(0.05, load_gbps))
    rows = []
    for system, session, capacity in zip(SYSTEMS, sessions, capacities):
        latency = session.run(loaded, batch_size=batch_size,
                              batch_count=batch_count).latency
        rows.append(Fig17Row(
            system=system,
            acl_rules=acl_rules,
            packet_size=packet_size,
            throughput_gbps=capacity,
            latency_ms=latency.mean_ms,
            latency_std_us=latency.variance ** 0.5 * 1e6,
        ))
    return rows


def cell_sweep_spec(acl_sizes: Sequence[int],
                    packet_sizes: Sequence[int] = PACKET_SIZES,
                    loads: Optional[Mapping[int, float]] = None,
                    quick: bool = True) -> common.SweepSpec:
    """One point per (ACL size, packet size) cell.

    Without ``loads`` each cell sets its own packet size's load, as the
    smallest ACL's cells do; with it, each cell's latency runs offer
    ``loads[packet_size]``.
    """
    grid = [{"acl_rules": acl_rules, "packet_size": packet_size}
            for acl_rules in acl_sizes for packet_size in packet_sizes]
    if loads is not None:
        for point in grid:
            point["load_gbps"] = loads[point["packet_size"]]
    return common.SweepSpec(
        name="fig17.cell",
        point=_cell_point,
        grid=grid,
        params={"batch_size": common.BATCH_SIZE,
                "batch_count": 50 if quick else 150},
    )


def run(quick: bool = True,
        acl_sizes: Sequence[int] = ACL_SIZES,
        packet_sizes: Sequence[int] = PACKET_SIZES,
        runner=None) -> List[Fig17Row]:
    """Every system's capacity and fixed-load latency in every cell.

    Phase 1 runs the smallest ACL's cells, which set each packet
    size's load; phase 2 runs every other cell at those loads.  Rows
    come in (ACL, packet size, system) order.
    """
    smallest, *larger = sorted(acl_sizes)
    rows = common.run_sweep(
        cell_sweep_spec((smallest,), packet_sizes, quick=quick),
        runner=runner,
    )
    loads = {size: _fixed_load(r.throughput_gbps for r in rows
                               if r.packet_size == size)
             for size in packet_sizes}
    return rows + common.run_sweep(
        cell_sweep_spec(larger, packet_sizes, loads, quick=quick),
        runner=runner,
    )


def throughput_retention(rows: List[Fig17Row]
                         ) -> Dict[str, Dict[int, float]]:
    """64 B throughput at each ACL size relative to the smallest ACL."""
    by_system: Dict[str, Dict[int, float]] = {}
    for row in rows:
        if row.packet_size != 64:
            continue
        by_system.setdefault(row.system, {})[row.acl_rules] = (
            row.throughput_gbps
        )
    retention: Dict[str, Dict[int, float]] = {}
    for system, series in by_system.items():
        base = series.get(min(series), 0.0)
        retention[system] = {
            acl: value / max(1e-9, base) for acl, value in series.items()
        }
    return retention


def latency_advantage(rows: List[Fig17Row]) -> Dict[Tuple[int, int],
                                                    Dict[str, float]]:
    """Baseline latency / NFCompass latency per (acl, packet size)."""
    lookup: Dict[Tuple[str, int, int], Fig17Row] = {
        (r.system, r.acl_rules, r.packet_size): r for r in rows
    }
    advantage: Dict[Tuple[int, int], Dict[str, float]] = {}
    for (system, acl, size), row in lookup.items():
        if system == "nfcompass":
            continue
        ours = lookup.get(("nfcompass", acl, size))
        if ours is None or ours.latency_ms <= 0:
            continue
        advantage.setdefault((acl, size), {})[system] = (
            row.latency_ms / ours.latency_ms
        )
    return advantage


def main(quick: bool = True, runner=None) -> str:
    """Render the Fig. 17 table and throughput-retention notes."""
    rows = run(quick=quick, runner=runner)
    table = common.format_table(
        ["system", "ACL", "pkt", "Gbps", "latency ms", "lat std us"],
        [[r.system, r.acl_rules, r.packet_size, r.throughput_gbps,
          r.latency_ms, r.latency_std_us] for r in rows],
        title="Fig. 17 — FW+router+NAT under growing ACLs",
    )
    retention = throughput_retention(rows)
    notes = []
    for system, series in retention.items():
        drops = ", ".join(
            f"ACL{acl}: {1 - fraction:.0%} drop"
            for acl, fraction in sorted(series.items()) if acl != 200
        )
        notes.append(f"{system} (64B): {drops}")
    notes.append("(paper: FastClick -38 %/-84 %, NBA -32 %/-73 %, "
                 "NFCompass ~flat; NFCompass latency 1.4-9x lower)")
    return table + "\n" + "\n".join(notes)


if __name__ == "__main__":
    print(main(quick=False))
