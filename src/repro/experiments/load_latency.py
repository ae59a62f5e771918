"""Latency versus offered load (extension study).

Not a paper figure, but the canonical queueing view the paper's
latency numbers live in: sweep the offered load from 10 % to 130 % of
a deployment's capacity and record mean/p50/p95/p99 latency.  The
hockey-stick knee at capacity makes the Fig. 17 overload blow-ups
self-explanatory, and comparing NFCompass's curve against a baseline
shows its headroom, not just its operating point.

The burstiness sweep holds the *mean* offered load at 80 % of
capacity and varies only the arrival process (constant, Poisson,
on-off bursty, diurnal ramp): same average rate, very different tails
and queue depths — the reason p99 and peak backlog are first-class
report fields.

A sweep point deploys its system once, profiles it and measures its
capacity, then runs every load it owns on that one session: a load
sweep point is one system, a burstiness or overload point one arrival
mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from repro.baselines.fastclick import FastClickBaseline
from repro.core.compass import NFCompass
from repro.experiments import common
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.engine import BranchProfile
from repro.traffic.arrivals import (
    MMPP,
    ArrivalProcess,
    ConstantRate,
    DiurnalRamp,
    Poisson,
)
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

#: Capacity is measured over a finite run whose makespan includes the
#: pipeline-fill transient, so the nominal 100 % point sits slightly
#: below the steady-state capacity; the sweep extends to 130 % so the
#: post-knee regime is always visible.
LOAD_FRACTIONS: Tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.8, 0.9,
                                     0.95, 1.0, 1.1, 1.3)

#: The (past-the-knee, below-the-knee) load fractions whose latency
#: ratio is a system's knee sharpness.
KNEE_FRACTIONS: Tuple[float, float] = (1.3, 0.5)


#: Arrival-process modes the burstiness sweep compares (all at the
#: same mean offered load).
BURST_MODES: Tuple[str, ...] = ("constant", "poisson", "onoff",
                                "diurnal")


@dataclass
class LoadLatencyRow:
    system: str
    load_fraction: float
    offered_gbps: float
    latency_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float


@dataclass
class BurstinessRow:
    """One arrival process at a fixed mean load."""

    mode: str
    offered_gbps: float
    peak_rate_gbps: float
    latency_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    max_queue_depth: int


#: Offered load as multiples of measured capacity for the overload
#: sweep — from comfortable (0.8x) to twice saturation (2.0x).
OVERLOAD_LOAD_MULTIPLES: Tuple[float, ...] = (0.8, 1.2, 1.6, 2.0)


@dataclass
class OverloadRow:
    """One arrival process at one overload multiple, protected."""

    mode: str
    load_multiple: float
    offered_gbps: float
    throughput_gbps: float
    goodput_gbps: float
    drop_rate: float
    shed_fraction: float
    latency_p99_ms: float
    conserved: bool


def _prepare(system: str, nf_types: Sequence[str], packet_size: int,
             batch_size: int, batch_count: int):
    """Deploy one system, profile it and measure its capacity.

    Returns (spec, profile, session, capacity_gbps); every run of the
    point shares the session.
    """
    engine = common.make_engine()
    spec = TrafficSpec(size_law=FixedSize(packet_size),
                       offered_gbps=40.0, seed=5)
    sfc = ServiceFunctionChain([make_nf(t) for t in nf_types])
    if system == "nfcompass":
        compass = NFCompass(platform=engine.platform)
        deployment = compass.deploy(sfc, spec,
                                    batch_size=batch_size).deployment
    else:
        baseline = FastClickBaseline(platform=engine.platform)
        deployment = baseline.deploy(sfc, spec, batch_size=batch_size)
    profile = BranchProfile.measure(
        deployment.graph.clone(), spec, sample_packets=256,
        batch_size=batch_size,
    )
    session = engine.session(deployment)
    capacity = session.measure_capacity(
        spec, batch_size=batch_size,
        batch_count=batch_count, branch_profile=profile,
    )
    return spec, profile, session, capacity


def _load_point(system: str, fractions: Sequence[float],
                nf_types: Sequence[str], packet_size: int,
                batch_size: int,
                batch_count: int) -> List[LoadLatencyRow]:
    """One system at every fraction of its measured capacity."""
    spec, profile, session, capacity = _prepare(
        system, nf_types, packet_size, batch_size, batch_count
    )
    rows = []
    for fraction in fractions:
        loaded = common.at_load(spec, max(0.02, capacity * fraction))
        report = session.run(loaded,
                             batch_size=batch_size,
                             batch_count=batch_count,
                             branch_profile=profile)
        rows.append(LoadLatencyRow(
            system=system,
            load_fraction=fraction,
            offered_gbps=loaded.offered_gbps,
            latency_ms=report.latency.mean_ms,
            latency_p50_ms=report.latency.p50 * 1e3,
            latency_p95_ms=report.latency.p95 * 1e3,
            latency_p99_ms=report.latency.p99 * 1e3,
        ))
    return rows


def _arrival_process(mode: str, burst_factor: float,
                     duty_cycle: float, seed: int) -> ArrivalProcess:
    """The burstiness sweep's process for one mode string.

    Keyed by a plain string (plus scalar burst knobs) so the sweep
    grid stays trivially fingerprintable; the process object itself is
    built inside the point function.
    """
    if mode == "constant":
        return ConstantRate()
    if mode == "poisson":
        return Poisson(seed=seed)
    if mode == "onoff":
        return MMPP(burst_factor=burst_factor, duty_cycle=duty_cycle,
                    seed=seed)
    if mode == "diurnal":
        return DiurnalRamp()
    raise ValueError(f"unknown burstiness mode {mode!r}")


def _burst_point(mode: str, nf_types: Sequence[str], packet_size: int,
                 batch_size: int, batch_count: int,
                 burst_factor: float, duty_cycle: float,
                 seed: int) -> List[BurstinessRow]:
    """One arrival process on the NFCompass deployment at 80 % of its
    capacity."""
    spec, profile, session, capacity = _prepare(
        "nfcompass", nf_types, packet_size, batch_size, batch_count
    )
    process = _arrival_process(mode, burst_factor, duty_cycle, seed)
    loaded = replace(common.at_load(spec, max(0.02, capacity * 0.8)),
                     arrivals=process)
    report = session.run(loaded,
                         batch_size=batch_size,
                         batch_count=batch_count,
                         branch_profile=profile)
    depth = max(report.max_queue_depth.values(), default=0)
    return [BurstinessRow(
        mode=mode,
        offered_gbps=loaded.offered_gbps,
        peak_rate_gbps=report.ledger.peak_rate_gbps,
        latency_ms=report.latency.mean_ms,
        latency_p50_ms=report.latency.p50 * 1e3,
        latency_p95_ms=report.latency.p95 * 1e3,
        latency_p99_ms=report.latency.p99 * 1e3,
        max_queue_depth=depth,
    )]


def _overload_point(mode: str, multiples: Sequence[float],
                    nf_types: Sequence[str], packet_size: int,
                    batch_size: int, batch_count: int, queue_limit: int,
                    drop_policy: str, slo_ms: float, admission: str,
                    burst_factor: float, duty_cycle: float,
                    seed: int) -> List[OverloadRow]:
    """One arrival process, protected, at every multiple of measured
    capacity.

    All overload knobs arrive as scalars (policy/admission by name) so
    the sweep grid stays trivially fingerprintable; the
    :class:`~repro.overload.OverloadConfig` is built inside the point.
    Each run starts from the config's own controller state.
    """
    from repro.overload import (
        OverloadConfig,
        SLOFeedbackAdmission,
        TokenBucketAdmission,
        parse_drop_policy,
    )

    spec, profile, session, capacity = _prepare(
        "nfcompass", nf_types, packet_size, batch_size, batch_count
    )
    process = _arrival_process(mode, burst_factor, duty_cycle, seed)
    controller = None
    if admission == "token":
        controller = TokenBucketAdmission()
    elif admission == "slo":
        controller = SLOFeedbackAdmission(p99_ms=slo_ms)
    config = OverloadConfig(queue_limit=queue_limit,
                            drop_policy=parse_drop_policy(drop_policy),
                            admission=controller, slo_ms=slo_ms)
    rows = []
    for multiple in multiples:
        loaded = replace(
            common.at_load(spec, max(0.02, capacity * multiple)),
            arrivals=process,
        )
        report = session.run(loaded,
                             batch_size=batch_size,
                             batch_count=batch_count,
                             branch_profile=profile,
                             overload=config)
        conserved = report.conservation_error \
            <= 1e-6 * max(1.0, report.offered_packets)
        rows.append(OverloadRow(
            mode=mode,
            load_multiple=multiple,
            offered_gbps=loaded.offered_gbps,
            throughput_gbps=report.throughput_gbps,
            goodput_gbps=report.goodput_gbps,
            drop_rate=report.drop_rate,
            shed_fraction=report.shed_fraction,
            latency_p99_ms=report.latency.p99 * 1e3,
            conserved=conserved,
        ))
    return rows


def latency_sweep_spec(quick: bool = True,
                       nf_types: Sequence[str] = ("firewall", "ids"),
                       packet_size: int = 256,
                       batch_size: int = 64,
                       fractions: Sequence[float] = LOAD_FRACTIONS
                       ) -> common.SweepSpec:
    """The load sweep: one point per system, every fraction of its
    measured capacity."""
    return common.SweepSpec(
        name="load_latency.load",
        point=_load_point,
        row_type=LoadLatencyRow,
        grid=[{"system": system}
              for system in ("nfcompass", "fastclick")],
        params={"fractions": tuple(fractions),
                "nf_types": tuple(nf_types),
                "packet_size": packet_size,
                "batch_size": batch_size,
                "batch_count": 60 if quick else 200},
        context=common.sweep_context(),
    )


def burstiness_sweep_spec(quick: bool = True,
                          nf_types: Sequence[str] = ("firewall", "ids"),
                          packet_size: int = 256,
                          batch_size: int = 64,
                          modes: Sequence[str] = BURST_MODES,
                          burst_factor: float = 4.0,
                          duty_cycle: float = 0.25,
                          seed: int = 211) -> common.SweepSpec:
    """Arrival-process comparison at a fixed mean load, one point per
    mode."""
    return common.SweepSpec(
        name="load_latency.burst_mode",
        point=_burst_point,
        row_type=BurstinessRow,
        grid=[{"mode": mode} for mode in modes],
        params={"nf_types": tuple(nf_types),
                "packet_size": packet_size,
                "batch_size": batch_size,
                "batch_count": 60 if quick else 200,
                "burst_factor": burst_factor,
                "duty_cycle": duty_cycle,
                "seed": seed},
        context=common.sweep_context(),
    )


def overload_sweep_spec(quick: bool = True,
                        nf_types: Sequence[str] = ("firewall", "ids"),
                        packet_size: int = 256,
                        batch_size: int = 64,
                        modes: Sequence[str] = BURST_MODES,
                        multiples: Sequence[float]
                        = OVERLOAD_LOAD_MULTIPLES,
                        queue_limit: int = 4,
                        drop_policy: str = "tail",
                        slo_ms: float = 2.0,
                        admission: str = "none",
                        burst_factor: float = 4.0,
                        duty_cycle: float = 0.25,
                        seed: int = 211) -> common.SweepSpec:
    """Graceful degradation under overload protection, one point per
    mode.

    Sweeps every arrival mode across load multiples of measured
    capacity with bounded queues and an SLO: past saturation the
    drop rate rises while admitted traffic's p99 stays bounded —
    the graceful-degradation curve an unprotected pipeline lacks
    (its latency diverges with queue depth instead).
    """
    return common.SweepSpec(
        name="load_latency.overload_mode",
        point=_overload_point,
        row_type=OverloadRow,
        grid=[{"mode": mode} for mode in modes],
        params={"multiples": tuple(multiples),
                "nf_types": tuple(nf_types),
                "packet_size": packet_size,
                "batch_size": batch_size,
                "batch_count": 60 if quick else 200,
                "queue_limit": queue_limit,
                "drop_policy": drop_policy,
                "slo_ms": slo_ms,
                "admission": admission,
                "burst_factor": burst_factor,
                "duty_cycle": duty_cycle,
                "seed": seed},
        context=common.sweep_context(),
    )


def run_overload(quick: bool = True,
                 nf_types: Sequence[str] = ("firewall", "ids"),
                 packet_size: int = 256,
                 batch_size: int = 64,
                 modes: Sequence[str] = BURST_MODES,
                 multiples: Sequence[float] = OVERLOAD_LOAD_MULTIPLES,
                 queue_limit: int = 4,
                 drop_policy: str = "tail",
                 slo_ms: float = 2.0,
                 admission: str = "none",
                 jobs: int = 1, runner=None) -> List[OverloadRow]:
    """Overload-protected degradation curves across arrival modes."""
    return common.run_sweep(
        overload_sweep_spec(quick=quick, nf_types=nf_types,
                            packet_size=packet_size,
                            batch_size=batch_size, modes=modes,
                            multiples=multiples,
                            queue_limit=queue_limit,
                            drop_policy=drop_policy, slo_ms=slo_ms,
                            admission=admission),
        jobs=jobs, runner=runner,
    )


def run_burstiness(quick: bool = True,
                   nf_types: Sequence[str] = ("firewall", "ids"),
                   packet_size: int = 256,
                   batch_size: int = 64,
                   modes: Sequence[str] = BURST_MODES,
                   jobs: int = 1, runner=None) -> List[BurstinessRow]:
    """Compare arrival processes at 80 % of NFCompass capacity."""
    return common.run_sweep(
        burstiness_sweep_spec(quick=quick, nf_types=nf_types,
                              packet_size=packet_size,
                              batch_size=batch_size, modes=modes),
        jobs=jobs, runner=runner,
    )


def run(quick: bool = True,
        nf_types: Sequence[str] = ("firewall", "ids"),
        packet_size: int = 256,
        batch_size: int = 64,
        fractions: Sequence[float] = LOAD_FRACTIONS,
        jobs: int = 1, runner=None) -> List[LoadLatencyRow]:
    """Sweep offered load for both systems; returns one row per
    (system, load fraction)."""
    return common.run_sweep(
        latency_sweep_spec(quick=quick, nf_types=nf_types,
                           packet_size=packet_size,
                           batch_size=batch_size, fractions=fractions),
        jobs=jobs, runner=runner,
    )


def knee_sharpness(rows: List[LoadLatencyRow], system: str) -> float:
    """Latency at 130 % load over latency at 50 % load
    (:data:`KNEE_FRACTIONS`)."""
    by_fraction = {r.load_fraction: r for r in rows
                   if r.system == system}
    high_fraction, low_fraction = KNEE_FRACTIONS
    low = by_fraction.get(low_fraction)
    high = by_fraction.get(high_fraction)
    if not low or not high or low.latency_ms <= 0:
        return 0.0
    return high.latency_ms / low.latency_ms


def knee_note(rows: List[LoadLatencyRow]) -> str:
    """One line with every system's :func:`knee_sharpness`."""
    high_fraction, low_fraction = KNEE_FRACTIONS
    return (f"knee sharpness (latency at {high_fraction:.0%} / "
            f"{low_fraction:.0%} load): "
            + ", ".join(f"{s}: {knee_sharpness(rows, s):.1f}x"
                        for s in dict.fromkeys(r.system for r in rows)))


def main(quick: bool = True, jobs: int = 1, runner=None) -> str:
    """Render the load sweep table, ASCII curves, and knee factors."""
    from repro.experiments.plots import line_plot
    rows = run(quick=quick, jobs=jobs, runner=runner)
    table = common.format_table(
        ["system", "load", "offered Gbps", "latency ms", "p50 ms",
         "p95 ms", "p99 ms"],
        [[r.system, f"{r.load_fraction:.0%}", r.offered_gbps,
          r.latency_ms, r.latency_p50_ms, r.latency_p95_ms,
          r.latency_p99_ms] for r in rows],
        title="Latency vs offered load (extension study)",
    )
    series = {}
    for row in rows:
        series.setdefault(row.system, []).append(
            (row.load_fraction * 100, row.latency_ms)
        )
    plot = line_plot(series, title="mean latency (ms) vs load (%)",
                     x_label="% of capacity", y_label="ms")
    burst_rows = run_burstiness(quick=quick, jobs=jobs, runner=runner)
    burst_table = common.format_table(
        ["arrivals", "mean Gbps", "peak Gbps", "latency ms", "p50 ms",
         "p95 ms", "p99 ms", "max queue"],
        [[r.mode, r.offered_gbps, r.peak_rate_gbps, r.latency_ms,
          r.latency_p50_ms, r.latency_p95_ms, r.latency_p99_ms,
          r.max_queue_depth] for r in burst_rows],
        title="Burstiness at 80% mean load (same rate, different "
              "tails)",
    )
    overload_rows = run_overload(quick=quick, jobs=jobs, runner=runner)
    overload_table = common.format_table(
        ["arrivals", "load", "offered Gbps", "goodput Gbps", "drop",
         "p99 ms", "conserved"],
        [[r.mode, f"{r.load_multiple:.1f}x", r.offered_gbps,
          r.goodput_gbps, f"{r.drop_rate:.1%}", r.latency_p99_ms,
          "yes" if r.conserved else "NO"] for r in overload_rows],
        title="Graceful degradation under overload protection "
              "(queue_limit=4, tail-drop, 2 ms SLO)",
    )
    return (table + "\n\n" + plot + "\n" + knee_note(rows)
            + "\n\n" + burst_table + "\n\n" + overload_table)


if __name__ == "__main__":
    print(main(quick=False))
