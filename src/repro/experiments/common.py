"""Shared experiment utilities.

Sweep contexts over the standard platform, dedicated-core mappings (the
characterization experiments pin each element to its own core, as the
paper pins NFs to dedicated cores), two-pass capacity/latency
measurement, plain-text table rendering, and the sweep plumbing every
harness shares: each driver describes its parameter grid as a
:class:`SweepSpec` (re-exported here from :mod:`repro.runner`) and
executes it through :func:`run_sweep` on the caller's
:class:`SweepRunner` (:func:`make_runner` builds the CLI's), which
supplies worker parallelism and content-addressed result caching.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.elements.graph import ElementGraph
from repro.hw.platform import PlatformSpec
from repro.obs import current_trace
from repro.runner import (  # noqa: F401  (re-exported sweep API)
    ResultCache,
    SweepRunner,
    SweepSpec,
    run_sweep,
)
from repro.sim.engine import BranchProfile
from repro.sim.kernel import SATURATING_GBPS, SimulationSession
from repro.sim.mapping import Mapping
from repro.sim.metrics import ThroughputLatencyReport
from repro.traffic.generator import TrafficSpec

#: :func:`measure` takes latency at this fraction of measured capacity.
LATENCY_LOAD_FRACTION = 0.8

#: The batch size of every harness sweep.
BATCH_SIZE = 64

#: Default on-disk sweep cache directory (``repro experiments run``).
DEFAULT_CACHE_DIR = ".repro-cache"


def make_runner(jobs: int = 1, use_cache: bool = False,
                cache_dir: Optional[str] = None) -> SweepRunner:
    """A sweep runner configured like the CLI's ``--jobs/--no-cache``.

    ``use_cache=True`` persists results under ``cache_dir`` (default
    :data:`DEFAULT_CACHE_DIR`); without it the runner recomputes every
    point.
    """
    cache = None
    if use_cache:
        cache = ResultCache(cache_dir or DEFAULT_CACHE_DIR)
    return SweepRunner(jobs=jobs, cache=cache)


def sweep_context(traffic: Optional[TrafficSpec] = None) -> Dict[str, Any]:
    """The static fingerprint context of a standard-platform sweep.

    Bundles the deployment identity the point function closes over —
    the platform config and, if given, the traffic spec — so the cache
    key covers them even though they are not per-point parameters.
    """
    context: Dict[str, Any] = {"platform": PlatformSpec()}
    if traffic is not None:
        context["traffic"] = traffic
    return context


def dedicated_core_mapping(graph: ElementGraph, offload_ratio: float = 0.0,
                           gpus: Sequence[str] = ("gpu0",)) -> Mapping:
    """Pin every element to its own CPU core; offload offloadables.

    Mirrors the paper's per-NF dedicated-core methodology and isolates
    the element under study as the pipeline bottleneck: elements take
    the platform's cores round robin (:meth:`Mapping.fixed_ratio`).
    """
    return Mapping.fixed_ratio(graph, offload_ratio,
                               cores=PlatformSpec().cpu_processor_ids(),
                               gpus=gpus)


def saturated(spec: TrafficSpec) -> TrafficSpec:
    """The same traffic (arrival process included) at saturating load."""
    return dataclasses.replace(spec, offered_gbps=SATURATING_GBPS)


def at_load(spec: TrafficSpec, gbps: float) -> TrafficSpec:
    """The same traffic (arrival process included) at a specific load."""
    return dataclasses.replace(spec, offered_gbps=gbps)


@dataclass
class CapacityLatency:
    """Two-pass measurement: saturation throughput + loaded latency."""

    throughput_gbps: float
    latency_ms: float
    latency_p99_ms: float
    latency_variance: float
    report: ThroughputLatencyReport
    #: The saturation run's busiest processor, if any work was done.
    bottleneck: Optional[str] = None


def measure(session: SimulationSession, spec: TrafficSpec,
            batch_size: int = 64, batch_count: int = 120,
            branch_profile: Optional[BranchProfile] = None
            ) -> CapacityLatency:
    """Measure capacity at saturation, then latency at 80 % load.

    Measuring latency at the saturating load would report queue growth
    rather than service latency; the paper's latencies are taken at
    offered loads the system can carry.  Both passes run on the
    deployment's one ``session`` (a deploy's plan brings its own).
    The ambient trace sees one ``measure`` span with both simulation
    passes as children.
    """
    trace = current_trace()
    with trace.span("measure", deployment=session.deployment.name,
                    batch_size=batch_size) as span:
        saturation_report = session.run(
            saturated(spec), batch_size=batch_size,
            batch_count=batch_count, branch_profile=branch_profile,
            trace=trace,
        )
        capacity = saturation_report.throughput_gbps
        loaded = at_load(spec, max(0.05, capacity * LATENCY_LOAD_FRACTION))
        latency_report = session.run(
            loaded, batch_size=batch_size,
            batch_count=batch_count, branch_profile=branch_profile,
            trace=trace,
        )
        span.set(capacity_gbps=capacity,
                 latency_ms=latency_report.latency.mean_ms)
    return CapacityLatency(
        throughput_gbps=capacity,
        latency_ms=latency_report.latency.mean_ms,
        latency_p99_ms=latency_report.latency.p99 * 1e3,
        latency_variance=latency_report.latency.variance,
        report=saturation_report,
        bottleneck=saturation_report.bottleneck_processor(),
    )


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned plain-text table."""
    text_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 100 else f"{value:.1f}"
    return str(value)
