"""The four workloads of the pipeline benchmark.

Every workload is a closed loop with one client, because callers of
``NFCompass.run``, ``SweepRunner.run`` and ``Runtime.step`` wait for
each result before asking for the next.  A workload provides:

- ``setup(seed)``: build the state its ops need, then run one warm-up
  op (both counted in ``setup_s``);
- ``op(state, index)``: one timed operation;
- ``problems(state, result)``: what is wrong with one op's output;
- ``gate(state, results)``: checks across ops, as op index -> problem;
- ``sim_metrics(state, results)``: the simulated (deterministic) results;
- ``traced(state)``: the traced pass, returning per-layer metrics.

Layers are timed from outside: around calls into their public
functions, and through the stage spans and counters the program
already records on a :class:`repro.obs.Trace`.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.compass import NFCompass
from repro.core.orchestrator import SFCOrchestrator
from repro.elements.offload import OffloadableElement
from repro.experiments import fig17_real_sfc as fig17
from repro.experiments.common import SATURATING_GBPS
from repro.faults import FaultSpec, FaultTimeline, ResilientRuntime
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.nf.firewall import Firewall
from repro.nf.ipv4 import IPv4Forwarder
from repro.nf.nat import NetworkAddressTranslator
from repro.obs import WALL_CLOCK, Trace, use_trace
from repro.overload import (
    CircuitBreaker,
    DeadlineDrop,
    OverloadConfig,
    RetryPolicy,
    SLOFeedbackAdmission,
)
from repro.runner import SweepRunner
from repro.runner import canonical_fingerprint as digest
from repro.sim.engine import BranchProfile, SimulationEngine
from repro.sim.mapping import Deployment, Mapping, Placement
from repro.traffic.acl import generate_acl
from repro.traffic.arrivals import MMPP
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

from timing import nearest_rank, timed

BATCH_SIZE = 64
#: Packets pushed through the functional NFs by the ``nf`` probe.
PROBE_PACKETS = 256
#: Batch counts of the kernel complexity ladder (µs per task at each).
LADDER = (500, 1000, 2000, 4000)
#: Traffic-seed offset of the warm-up op, outside every op's range.
WARMUP_INDEX = 999

FIVE_NF = ("firewall", "ids", "nat", "ipsec", "dpi")


def has_tee(graph) -> bool:
    return any(graph.element(node).kind == "Tee" for node in graph.nodes)


@dataclass
class Outcome:
    """One simulated op's report, whether its graph duplicates packets
    (a ``Tee``, which decides the conservation check), and the tasks
    its final simulation scheduled."""

    report: Any
    tee: bool
    tasks: int


def scheduled_tasks(session) -> int:
    return sum(session.last_timeline.task_counts.values())


def report_problems(outcome: Outcome) -> List[str]:
    report = outcome.report
    problems = []
    if report.delivered_packets > report.offered_packets:
        problems.append(f"delivered {report.delivered_packets} > "
                        f"offered {report.offered_packets}")
    for name, value in (("Gbps", report.throughput_gbps),
                        ("p99", report.p99)):
        if not (math.isfinite(value) and value > 0):
            problems.append(f"{name} {value!r} is not finite and positive")
    # On parallelized plans the kernel counts the XOR-merge's collapsed
    # branch copies as drops, so exact conservation only holds without
    # a Tee (see sim.dup_drop_pkts).
    if not outcome.tee and report.conservation_error != 0:
        problems.append(f"conservation error {report.conservation_error}")
    return problems


def sim_from_reports(reports: Sequence[Any]) -> Dict[str, float]:
    """Simulated goodput, pooled nearest-rank p99 and loss."""
    samples = [s for report in reports for s in report.latency_samples]
    offered = sum(report.offered_packets for report in reports)
    delivered = sum(report.delivered_packets for report in reports)
    return {
        "sim_gbps": statistics.fmean(r.goodput_gbps for r in reports),
        "sim_p99_ms": nearest_rank(samples, 99.0) * 1e3,
        "sim_loss_frac": 1.0 - delivered / offered,
    }


def digest_gate(results: Sequence[Any], expected: Sequence[Any],
                what: str) -> Dict[int, str]:
    """Op index -> problem for every result whose digest differs."""
    return {index: f"digest differs from {what}"
            for index, (got, want) in enumerate(zip(results, expected))
            if digest(got) != digest(want)}


# -- trace reading ----------------------------------------------------------
class TraceWindow:
    """The wall-clock spans and counter increments a trace records
    after this window was opened."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self._first = len(trace.spans)
        self._counters = dict(trace.metrics.snapshot()["counters"])

    def spans(self, name: Optional[str] = None) -> list:
        return [span for span in self.trace.spans[self._first:]
                if span.clock == WALL_CLOCK
                and (name is None or span.name == name)]

    def counter(self, name: str) -> float:
        now = self.trace.metrics.snapshot()["counters"].get(name, 0.0)
        return now - self._counters.get(name, 0.0)

    def total_ms(self, name: str) -> float:
        return sum(span.duration for span in self.spans(name)) * 1e3

    def self_ms(self, name: str) -> float:
        """Time in ``name`` spans not covered by their child spans."""
        spans = self.spans()
        ids = {span.span_id for span in spans if span.name == name}
        inside = sum(span.duration for span in spans
                     if span.parent_id in ids)
        return self.total_ms(name) - inside * 1e3


@dataclass
class TracedOp:
    """One op of a traced pass and what its spans say about it."""

    seconds: float
    result: Any
    #: Wall seconds of the op's final simulation (its last
    #: ``simulate`` span), whose tasks ``Outcome.tasks`` counts.
    simulate_s: float
    profile_calls: int
    #: Distinct graphs among the op's profile calls.
    profile_graphs: int


def traced_op(trace: Trace, fn, *args) -> TracedOp:
    """Time ``fn(*args)`` and read the spans it recorded on ``trace``."""
    window = TraceWindow(trace)
    seconds, result = timed(fn, *args)
    simulated = window.spans("simulate")
    profiles = window.spans("profile")
    return TracedOp(
        seconds=seconds, result=result,
        simulate_s=simulated[-1].duration if simulated else 0.0,
        profile_calls=len(profiles),
        profile_graphs=len({span.attrs.get("graph") for span in profiles}),
    )


def layer_metrics(window: TraceWindow, ops: List[TracedOp]) -> Dict[str, float]:
    """Per-layer metrics every workload derives from its trace.

    Stage times and pipeline counts are per op; overload, fault and
    runner counts are totals over the traced pass.
    """
    n = len(ops)
    profile_calls = sum(op.profile_calls for op in ops)
    outcomes = [op.result for op in ops if isinstance(op.result, Outcome)]
    reports = [outcome.report for outcome in outcomes]
    tasks = sum(outcome.tasks for outcome in outcomes)
    replans = window.spans("replan")

    def mean(values):
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    def bottleneck_frac(report):
        busiest = report.bottleneck_processor()
        if busiest is None or report.makespan_seconds <= 0:
            return 0.0
        return report.processor_busy_seconds[busiest] \
            / report.makespan_seconds

    return {
        # The complexity ladder and the parallel speedup are measured
        # only by their own workloads, which overwrite these zeros.
        **{f"sim.kernel_us_per_task_b{count}": 0.0 for count in LADDER},
        "runner.parallel_speedup": 0.0,
        "sim.profile_ms": window.total_ms("profile") / n,
        "sim.profile_calls": profile_calls / n,
        "sim.profile_repeat_frac": (
            1.0 - sum(op.profile_graphs for op in ops) / profile_calls
            if profile_calls else 0.0),
        "core.parallelize_ms": window.total_ms("parallelize") / n,
        "core.synthesize_ms": window.total_ms("synthesize") / n,
        "core.expand_ms": window.total_ms("expand") / n,
        "core.partition_ms": window.total_ms("partition") / n,
        "core.lower_ms": window.total_ms("lower") / n,
        "core.deploy_self_ms": window.self_ms("deploy") / n,
        "core.partition_kl_passes": window.counter("partition.kl.passes") / n,
        "core.partition_kl_moves": window.counter("partition.kl.moves") / n,
        "sim.simulate_ms": window.total_ms("simulate") / n,
        "sim.capacity_ms": window.total_ms("capacity") / n,
        "sim.kernel_us_per_task": (sum(op.simulate_s for op in ops)
                                   / tasks * 1e6 if tasks else 0.0),
        "sim.tasks_per_op": tasks / n,
        "sim.max_queue_depth": max(
            (max(r.max_queue_depth.values(), default=0) for r in reports),
            default=0),
        "sim.bottleneck_busy_frac": mean(map(bottleneck_frac, reports)),
        "sim.queue_wait_sim_s": mean(r.total_queue_wait_seconds
                                     for r in reports),
        "sim.dup_drop_pkts": mean(
            max(0.0, r.delivered_packets + r.dropped_packets
                - r.offered_packets) for r in reports),
        "runner.points": window.counter("runner.points"),
        "runner.shards": window.counter("runner.shards"),
        "runner.execute_self_ms": window.self_ms("execute") / n,
        "overload.queue_drops": window.counter("overload.drops"),
        "overload.sheds": window.counter("overload.sheds"),
        "overload.breaker_trips": window.counter("breaker.trips"),
        "overload.retry_attempts": window.counter("retry.attempts"),
        "faults.replans": window.counter("fault.replans"),
        "faults.replan_ms": mean(span.duration * 1e3 for span in replans),
    }


def overhead_pct(untraced: Sequence[float], traced: Sequence[float]) -> float:
    """Traced vs untraced median op time on the same inputs, in %."""
    plain = nearest_rank(untraced, 50.0)
    return (nearest_rank(traced, 50.0) - plain) / plain * 100.0


# -- probes -----------------------------------------------------------------
def acl_chain(rules: int, matcher_kind: str) -> ServiceFunctionChain:
    """Fig. 16's firewall -> router -> NAT chain, as fig17 builds it."""
    acl = generate_acl(rules, seed=rules, deny_fraction=0.0)
    return ServiceFunctionChain(
        [Firewall(rules=acl, matcher_kind=matcher_kind, name="fw"),
         IPv4Forwarder(name="router"),
         NetworkAddressTranslator(name="nat")],
        name=f"fw{rules}-router-nat",
    )


def _median_ms(fn, *args, repeats: int = 3) -> float:
    return statistics.median(timed(fn, *args)[0]
                             for _ in range(repeats)) * 1e3


def probe_metrics(graph, spec: TrafficSpec, arrivals) -> Dict[str, float]:
    """Layer probes on one workload graph: clone, functional execution,
    arrival generation, plus a clone of the 10k-rule ACL chain."""
    acl10k = acl_chain(10000, "tuple_space").concatenated_graph()
    exec_seconds, _ = timed(BranchProfile.measure, graph.clone(), spec,
                            PROBE_PACKETS, BATCH_SIZE)
    return {
        "elements.clone_ms": _median_ms(graph.clone),
        "elements.clone_ms_acl10k": _median_ms(acl10k.clone),
        "nf.exec_us_per_pkt": exec_seconds / PROBE_PACKETS * 1e6,
        "traffic.arrivals_ms": _median_ms(arrivals.batch_arrivals, 1000,
                                          BATCH_SIZE, spec, repeats=5),
    }


@dataclass
class PassResult:
    """Metrics of one pass, the ops it attempted, and the problems of
    every op that failed a check (op label -> messages)."""

    metrics: Dict[str, float]
    attempted: int
    problems: Dict[str, List[str]] = field(default_factory=dict)

    def fail(self, label: str, message: str) -> None:
        self.problems.setdefault(label, []).append(message)


def paired_pass(untraced_op, traced_op_fn, count: int, trace: Trace):
    """Run op ``i`` untraced then traced for ``i < count``.

    Interleaving keeps drift on the host from showing up as tracing
    overhead.  Returns the traced ops and a :class:`PassResult` holding
    the trace overhead and the problems: failed report checks, and
    traced reports that differ from their untraced twin.
    """
    plain, traced = [], []
    result = PassResult({}, 2 * count)
    for index in range(count):
        seconds, outcome = timed(untraced_op, index)
        plain.append(seconds)
        op = traced_op(trace, traced_op_fn, index)
        traced.append(op)
        for problem in report_problems(outcome):
            result.fail(f"op {index}", problem)
        for problem in report_problems(op.result):
            result.fail(f"traced op {index}", problem)
        if digest(outcome.report) != digest(op.result.report):
            result.fail(f"traced op {index}", "report differs from untraced")
    result.metrics["obs.trace_overhead_pct"] = overhead_pct(
        plain, [op.seconds for op in traced])
    return traced, result


# -- workloads --------------------------------------------------------------
class ReportWorkload:
    """A workload whose ops return an :class:`Outcome`; its simulated
    results come from the first ``min_ops`` ops, so they do not depend
    on how many ops fit in a measurement window."""

    min_ops = 1

    def problems(self, state, outcome: Outcome) -> List[str]:
        return report_problems(outcome)

    def sim_metrics(self, state, results: List[Outcome]):
        return sim_from_reports([r.report for r in results[:self.min_ops]])


class Deploy5NF(ReportWorkload):
    """``NFCompass().run`` of a fresh five-NF chain, a new seed per op."""

    name = "deploy-5nf"
    ops, min_ops, traced_ops = 100, 10, 10

    @staticmethod
    def spec(seed: int, index: int) -> TrafficSpec:
        return TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                           seed=1000 * seed + index)

    def deploy(self, seed: int, index: int, trace=None):
        sfc = ServiceFunctionChain([make_nf(kind) for kind in FIVE_NF])
        return NFCompass().run(sfc, self.spec(seed, index),
                               batch_size=BATCH_SIZE, batch_count=200,
                               trace=trace)

    def setup(self, seed: int) -> int:
        self.deploy(seed, WARMUP_INDEX)
        return seed

    def op(self, seed: int, index: int, trace=None) -> Outcome:
        result = self.deploy(seed, index, trace)
        return Outcome(result.report, has_tee(result.plan.graph),
                       scheduled_tasks(result.session))

    def gate(self, seed: int, results: List[Outcome]) -> Dict[int, str]:
        rerun = self.op(seed, 0)
        return digest_gate([rerun.report], [results[0].report],
                           "op 0 at the start")

    def traced(self, seed: int) -> PassResult:
        trace = Trace(self.name)
        window = TraceWindow(trace)
        ops, result = paired_pass(
            lambda index: self.op(seed, index),
            lambda index: self.op(seed, index, trace),
            self.traced_ops, trace)
        result.metrics.update(layer_metrics(window, ops))
        spec = self.spec(seed, 0)
        result.metrics.update(probe_metrics(
            self.deploy(seed, 0).plan.graph, spec, spec.arrival_process))
        return result


def _multi_gpu_mapping(graph, ratio=0.7, cores=6, gpus=2) -> Mapping:
    """Round-robin cores and GPUs, ``ratio`` offloaded where possible
    (the construction of the engine benchmark's large scenario)."""
    placements = {}
    core_index = 0
    gpu_index = 0
    for node in graph.topological_order():
        element = graph.element(node)
        core = f"cpu{core_index % cores}"
        core_index += 1
        if isinstance(element, OffloadableElement) and element.offloadable:
            placements[node] = Placement.split(
                core, f"gpu{gpu_index % gpus}", ratio)
            gpu_index += 1
        else:
            placements[node] = Placement.split(core)
    return Mapping(placements)


@dataclass
class KernelState:
    graph: Any
    spec: TrafficSpec
    profile: BranchProfile
    session: Any
    tee: bool


class KernelSaturated(ReportWorkload):
    """``session.run`` at saturation on the 25-node parallelized
    five-NF graph; profile and session are built in set-up."""

    name = "kernel-saturated"
    ops, min_ops, traced_ops = 100, 10, 6
    batch_count = 1000

    def setup(self, seed: int) -> KernelState:
        spec = TrafficSpec(size_law=FixedSize(256),
                           offered_gbps=SATURATING_GBPS, seed=seed)
        sfc = ServiceFunctionChain([make_nf(kind) for kind in FIVE_NF])
        _plan, graph = SFCOrchestrator().parallelize(sfc)
        deployment = Deployment(graph, _multi_gpu_mapping(graph),
                                persistent_kernel=True, name="bench-large")
        profile = BranchProfile.measure(graph.clone(), spec,
                                        sample_packets=256,
                                        batch_size=BATCH_SIZE)
        state = KernelState(graph, spec, profile,
                            SimulationEngine().session(deployment),
                            has_tee(graph))
        self.op(state, 0)
        return state

    def run(self, state: KernelState, batch_count: int, trace=None):
        return state.session.run(state.spec, batch_size=BATCH_SIZE,
                                 batch_count=batch_count,
                                 branch_profile=state.profile, trace=trace)

    def op(self, state: KernelState, index: int, trace=None) -> Outcome:
        report = self.run(state, self.batch_count, trace)
        return Outcome(report, state.tee, scheduled_tasks(state.session))

    def gate(self, state, results: List[Outcome]) -> Dict[int, str]:
        reports = [r.report for r in results]
        return digest_gate(reports, reports[:1] * len(reports), "op 0")

    def traced(self, state: KernelState) -> PassResult:
        trace = Trace(self.name)
        window = TraceWindow(trace)
        ops, result = paired_pass(
            lambda index: self.op(state, index),
            lambda index: self.op(state, index, trace),
            self.traced_ops, trace)
        first = digest(ops[0].result.report)
        for index, op in enumerate(ops):
            if digest(op.result.report) != first:
                result.fail(f"traced op {index}", "report differs from op 0")
        result.metrics.update(layer_metrics(window, ops))
        for count in LADDER:
            seconds, _ = timed(self.run, state, count)
            result.metrics[f"sim.kernel_us_per_task_b{count}"] = \
                seconds / scheduled_tasks(state.session) * 1e6
        result.metrics.update(probe_metrics(state.graph, state.spec,
                                            state.spec.arrival_process))
        return result


class SweepFig17:
    """The quick Fig. 17 sweep's largest-ACL column (10k rules, 64 B:
    2 phases, 6 points, 3 systems), timed serially.

    The column is where the whole sweep spends most of its profiling
    time, deep-copying the rule table at every point; the full 54-point
    grid takes 13 s or more per op, too long to time several in one
    run.  Serial is the CLI's default.  On two workers the sweep's time
    swung between runs by more than the bound: it needs both cores of a
    shared host, and the calibration loop cannot see the workers.  The
    traced pass still runs it on two workers, for the speedup and for
    the serial == parallel rows gate.
    """

    name = "sweep-fig17"
    ops, min_ops = 10, 3
    acl_sizes = (max(fig17.ACL_SIZES),)
    packet_sizes = (min(fig17.PACKET_SIZES),)
    #: Workers of the traced pass's parallel sweep; the host this
    #: benchmark was sized on has two cores.
    jobs = 2
    rows = len(acl_sizes) * len(packet_sizes) * len(fig17.SYSTEMS)

    def setup(self, seed: int) -> SweepRunner:
        # The warm-up is a one-cell sweep of the smallest ACL: it
        # imports every point's code at a third of the cost of an op.
        # The grid is the paper's and does not depend on seed.
        runner = SweepRunner(jobs=1)
        fig17.run(quick=True, acl_sizes=(min(fig17.ACL_SIZES),),
                  packet_sizes=self.packet_sizes, runner=runner)
        return runner

    def op(self, runner: SweepRunner, index: int) -> list:
        return fig17.run(quick=True, acl_sizes=self.acl_sizes,
                         packet_sizes=self.packet_sizes, runner=runner)

    def problems(self, runner, rows: list) -> List[str]:
        problems = []
        if len(rows) != self.rows:
            problems.append(f"{len(rows)} rows, expected {self.rows}")
        for row in rows:
            if not all(math.isfinite(v) and v > 0
                       for v in (row.throughput_gbps, row.latency_ms)):
                problems.append(f"row {row} is not finite and positive")
        return problems

    def gate(self, runner, results: List[list]) -> Dict[int, str]:
        return digest_gate(results, results[:1] * len(results), "op 0")

    def sim_metrics(self, runner, results: List[list]):
        rows = results[0]
        return {
            "sim_gbps": statistics.fmean(r.throughput_gbps for r in rows
                                         if r.system == "nfcompass"),
            # No per-batch samples cross the runner; the p99 is taken
            # over the rows' mean latencies.
            "sim_p99_ms": nearest_rank([r.latency_ms for r in rows], 99.0),
        }

    def traced(self, runner: SweepRunner) -> PassResult:
        """One untraced sweep on the workers, then an untraced and a
        traced serial sweep: spans of forked workers do not reach the
        parent's trace."""
        parallel_s, parallel_rows = timed(
            self.op, SweepRunner(jobs=self.jobs), 0)
        serial_s, serial_rows = timed(self.op, runner, 0)
        trace = Trace(self.name)
        window = TraceWindow(trace)
        with use_trace(trace):
            traced = traced_op(trace, self.op, runner, 0)
        result = PassResult({}, 3)
        for label, rows in (("jobs=2", parallel_rows),
                            ("serial", serial_rows),
                            ("traced serial", traced.result)):
            for problem in self.problems(runner, rows):
                result.fail(label, problem)
            if digest(rows) != digest(parallel_rows):
                result.fail(label, "rows differ from the jobs=2 rows")
        result.metrics.update(layer_metrics(window, [traced]))
        spec = TrafficSpec(size_law=FixedSize(64), offered_gbps=40.0)
        result.metrics.update(probe_metrics(
            acl_chain(10000, "tree").concatenated_graph(), spec,
            spec.arrival_process))
        result.metrics["runner.parallel_speedup"] = traced.seconds / parallel_s
        result.metrics["obs.trace_overhead_pct"] = overhead_pct(
            [serial_s], [traced.seconds])
        return result


@dataclass
class EpochState:
    seed: int
    spec: TrafficSpec
    runtime: ResilientRuntime


class EpochsOverload(ReportWorkload):
    """``ResilientRuntime.step`` at 1.5x capacity under MMPP bursts,
    overload protection and gpu0 faults repeating every 40 epochs."""

    name = "epochs-overload"
    #: The traced pass covers two whole 40-epoch fault cycles.
    ops, min_ops, traced_ops = 300, 100, 80
    batch_count = 1000
    chain = ("firewall", "ids", "nat")
    replayed = 20
    #: The burst pattern is part of the workload, like the fault
    #: schedule: seeding it from the workload seed would change how
    #: much is dropped, shed and replanned, so runs with different
    #: seeds would time different work.  The seed drives the traffic.
    arrivals = MMPP(seed=31)

    @staticmethod
    def spec(seed: int) -> TrafficSpec:
        return TrafficSpec(size_law=FixedSize(256), offered_gbps=11.5,
                           seed=seed)

    def faults(self, spec: TrafficSpec) -> FaultTimeline:
        """Per 40-epoch cycle: an 8x link degradation over epochs
        [5, 9) and a crash over [25.5, 28.5), for every epoch a pass
        can run (warm-up included)."""
        epoch = self.batch_count * BATCH_SIZE * spec.mean_packet_interval()
        specs = []
        for cycle in range(math.ceil((self.ops + 1) / 40)):
            base = 40 * cycle
            specs.append(FaultSpec("gpu0", "degrade_link",
                                   (base + 5) * epoch, (base + 9) * epoch,
                                   factor=8.0))
            specs.append(FaultSpec("gpu0", "crash", (base + 25.5) * epoch,
                                   (base + 28.5) * epoch))
        return FaultTimeline(specs)

    def setup(self, seed: int, trace=None) -> EpochState:
        spec = self.spec(seed)
        # Overload controllers carry state across epochs, so every
        # runtime gets its own.
        overload = OverloadConfig(
            queue_limit=16, drop_policy=DeadlineDrop(), slo_ms=2.0,
            admission=SLOFeedbackAdmission(p99_ms=2.0),
            breaker=CircuitBreaker(),
            retry=RetryPolicy(timeout_stretch=4.0))
        runtime = ResilientRuntime(
            ServiceFunctionChain([make_nf(kind) for kind in self.chain]),
            spec, self.faults(spec), arrivals=self.arrivals,
            overload=overload, trace=trace)
        state = EpochState(seed, spec, runtime)
        self.op(state, 0)
        return state

    def op(self, state: EpochState, index: int) -> Outcome:
        runtime = state.runtime
        result = runtime.step(state.spec, batch_count=self.batch_count)
        return Outcome(result.report, has_tee(runtime.plan.graph),
                       scheduled_tasks(runtime.session))

    def gate(self, state: EpochState, results: List[Outcome]):
        replay = self.setup(state.seed)
        replayed = [self.op(replay, index).report
                    for index in range(min(self.replayed, len(results)))]
        return digest_gate(replayed, [r.report for r in results],
                           "a replay on a fresh runtime")

    def traced(self, state: EpochState) -> PassResult:
        """Step the untraced runtime and a traced twin epoch by epoch."""
        trace = Trace(self.name)
        traced_state = self.setup(state.seed, trace)
        window = TraceWindow(trace)
        ops, result = paired_pass(
            lambda index: self.op(state, index),
            lambda index: self.op(traced_state, index),
            self.traced_ops, trace)
        result.metrics.update(layer_metrics(window, ops))
        result.metrics.update(probe_metrics(
            traced_state.runtime.plan.graph, state.spec, self.arrivals))
        return result


WORKLOADS = {workload.name: workload for workload in (
    Deploy5NF(), KernelSaturated(), SweepFig17(), EpochsOverload())}
