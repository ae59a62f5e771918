"""Command-line interface.

Entry points::

    repro nf list                      # the NF catalog (Table II)
    repro elements                     # config-language element classes
    repro experiments list             # available paper harnesses
    repro experiments run fig06        # regenerate one figure
    repro deploy -c firewall,ids,lb    # NFCompass a chain and simulate
    repro deploy -c ids,nat --trace out.ndjson  # ... and trace it
    repro platform show                # registered devices (Table I)
    repro platform show --smartnic     # ... plus a SmartNIC offload
    repro trace out.ndjson             # per-stage wall-time summary
    repro validate --chains 25 --seed 0  # differential + oracle checks
    repro config run my.click          # parse + simulate a Click config
    repro --version

Also usable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import sys
from typing import List, Optional

EXPERIMENTS = {
    "tables": "repro.experiments.tables",
    "fig05": "repro.experiments.fig05_batch_split",
    "fig06": "repro.experiments.fig06_offload_ratio",
    "fig07": "repro.experiments.fig07_sfc_length",
    "fig08": "repro.experiments.fig08_characterization",
    "fig14": "repro.experiments.fig14_reorganization",
    "fig15": "repro.experiments.fig15_gta",
    "fig17": "repro.experiments.fig17_real_sfc",
    "ablations": "repro.experiments.ablations",
    "load-latency": "repro.experiments.load_latency",
}


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    from repro.experiments.common import DEFAULT_CACHE_DIR

    parser = argparse.ArgumentParser(
        prog="repro",
        description="NFCompass reproduction (HPCA 2018) command line",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    nf_parser = subparsers.add_parser("nf", help="network function catalog")
    nf_sub = nf_parser.add_subparsers(dest="nf_command", required=True)
    nf_sub.add_parser("list", help="list catalog NFs with Table II flags")

    subparsers.add_parser(
        "elements", help="list element classes usable in config files"
    )

    exp_parser = subparsers.add_parser("experiments",
                                       help="paper-figure harnesses")
    exp_sub = exp_parser.add_subparsers(dest="exp_command", required=True)
    exp_sub.add_parser("list", help="list available harnesses")
    exp_run = exp_sub.add_parser("run", help="run one harness")
    exp_run.add_argument("name", choices=sorted(EXPERIMENTS))
    exp_run.add_argument("--full", action="store_true",
                         help="full scale (default: quick)")
    exp_run.add_argument("--trace", metavar="PATH", default=None,
                         help="write an NDJSON observability trace of "
                              "the harness run to PATH")
    exp_run.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for sweep execution "
                              "(default 1: serial)")
    exp_run.add_argument("--no-cache", action="store_true",
                         help="disable the sweep result cache")
    exp_run.add_argument("--cache-dir", metavar="PATH", default=None,
                         help="persist cached sweep results under PATH "
                              f"(default {DEFAULT_CACHE_DIR!r} when "
                              "caching is enabled)")

    chaos = subparsers.add_parser(
        "chaos",
        help="run the seeded device-fault chaos grid through "
             "ResilientRuntime",
    )
    chaos.add_argument("--full", action="store_true",
                       help="full scale (default: quick)")
    chaos.add_argument("--seeds", type=int, default=4, metavar="N",
                       help="fault seeds per chain (default 4)")
    chaos.add_argument("--trace", metavar="PATH", default=None,
                       help="write an NDJSON observability trace of "
                            "the chaos run to PATH")
    chaos.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for sweep execution "
                            "(default 1: serial)")
    chaos.add_argument("--no-cache", action="store_true",
                       help="disable the sweep result cache")
    chaos.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="persist cached sweep results under PATH "
                            f"(default {DEFAULT_CACHE_DIR!r} when "
                            "caching is enabled)")

    deploy = subparsers.add_parser(
        "deploy", help="deploy a chain with NFCompass and simulate it"
    )
    deploy.add_argument("-c", "--chain", required=True,
                        help="comma-separated NF types, e.g. "
                             "firewall,ids,lb")
    deploy.add_argument("--packet-size", type=int, default=0,
                        help="fixed frame size in bytes (default IMIX)")
    deploy.add_argument("--load", type=float, default=40.0,
                        help="offered load in Gbps")
    deploy.add_argument("--batch", type=int, default=64)
    deploy.add_argument("--batches", type=int, default=120,
                        help="batch count to simulate")
    deploy.add_argument("--algorithm", choices=("kl", "agglomerative"),
                        default="kl")
    deploy.add_argument("--seed", type=int, default=1)
    deploy.add_argument("--arrivals",
                        choices=("constant", "poisson", "mmpp",
                                 "diurnal"),
                        default="constant",
                        help="batch arrival process (default: the "
                             "uniform constant-rate clock)")
    deploy.add_argument("--burst", type=float, default=4.0,
                        metavar="FACTOR",
                        help="mmpp ON-state rate multiple "
                             "(default 4.0)")
    deploy.add_argument("--duty", type=float, default=0.25,
                        metavar="CYCLE",
                        help="mmpp ON-state time fraction "
                             "(default 0.25)")
    deploy.add_argument("--arrival-seed", type=int, default=None,
                        metavar="N",
                        help="seed for sampled arrival processes "
                             "(default: the process's own)")
    deploy.add_argument("--trace", metavar="PATH", default=None,
                        help="write an NDJSON observability trace of "
                             "the deployment pipeline to PATH")
    deploy.add_argument("--queue-limit", type=int, default=None,
                        metavar="N",
                        help="bound each resource queue to N waiting "
                             "batches (default: unbounded, the "
                             "bit-identical historical path)")
    deploy.add_argument("--drop-policy", default="tail",
                        metavar="POLICY",
                        help="overflow policy for --queue-limit: "
                             "tail, head, or deadline[:MS] "
                             "(default tail)")
    deploy.add_argument("--admission", choices=("none", "token", "slo"),
                        default="none",
                        help="admission controller: token "
                             "(token-bucket) or slo (p99-feedback; "
                             "needs --slo-ms)")
    deploy.add_argument("--retry-budget", type=int, default=None,
                        metavar="N",
                        help="wrap offload dispatch in a circuit "
                             "breaker with N retries per leg")
    deploy.add_argument("--slo-ms", type=float, default=None,
                        metavar="MS",
                        help="latency SLO in ms: splits goodput from "
                             "late deliveries and feeds --admission "
                             "slo / --drop-policy deadline")

    platform = subparsers.add_parser(
        "platform", help="inspect the modeled server platform"
    )
    platform_sub = platform.add_subparsers(dest="platform_command",
                                           required=True)
    platform_show = platform_sub.add_parser(
        "show", help="print the platform's device inventory"
    )
    platform_show.add_argument("--sockets", type=int, default=None,
                               help="CPU sockets (default: Table I)")
    platform_show.add_argument("--gpus", type=int, default=None,
                               help="discrete GPUs (default: Table I)")
    platform_show.add_argument("--smartnic", action="store_true",
                               help="add a data-defined SmartNIC "
                                    "offload engine")
    platform_show.add_argument("--kinds", action="store_true",
                               help="also list registered device kinds")

    trace = subparsers.add_parser(
        "trace", help="summarize an NDJSON trace written by --trace"
    )
    trace.add_argument("path", help="NDJSON trace file")
    trace.add_argument("--sim-spans", type=int, default=5,
                       help="simulated-time spans to list (default 5)")

    validate = subparsers.add_parser(
        "validate",
        help="differential validation, partition oracle and engine "
             "invariant checks",
    )
    validate.add_argument("--chains", type=int, default=10,
                          help="random chains to differential-check")
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--packets", type=int, default=96,
                          help="trace length per chain")
    validate.add_argument("--batch", type=int, default=32)
    validate.add_argument("--max-len", type=int, default=6,
                          help="maximum NFs per random chain")
    validate.add_argument("--partition-graphs", type=int, default=10,
                          help="random graphs for the brute-force "
                               "partition oracle")
    validate.add_argument("--partition-nodes", type=int, default=12,
                          help="maximum nodes per oracle graph (2^n "
                               "enumeration)")
    validate.add_argument("--engine-runs", type=int, default=3,
                          help="simulations run under the "
                               "ValidatingRecorder")
    validate.add_argument("-v", "--verbose", action="store_true",
                          help="print every check, not just failures")

    config = subparsers.add_parser(
        "config", help="work with Click-style configuration files"
    )
    config_sub = config.add_subparsers(dest="config_command",
                                       required=True)
    config_run = config_sub.add_parser("run",
                                       help="parse and simulate a config")
    config_run.add_argument("path")
    config_run.add_argument("--packet-size", type=int, default=256)
    config_run.add_argument("--load", type=float, default=40.0)
    config_run.add_argument("--batch", type=int, default=64)
    config_run.add_argument("--batches", type=int, default=100)
    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_nf_list() -> int:
    from repro.experiments.common import format_table
    from repro.nf.catalog import NF_CATALOG

    def yn(flag: bool) -> str:
        return "Y" if flag else "N"

    rows = []
    for nf_type in sorted(NF_CATALOG):
        entry = NF_CATALOG[nf_type]
        actions = entry.actions
        rows.append([
            nf_type,
            f"{yn(actions.reads_header)}/{yn(actions.reads_payload)}",
            f"{yn(actions.writes_header)}/{yn(actions.writes_payload)}",
            yn(actions.adds_removes_bits),
            yn(actions.drops),
            entry.description,
        ])
    print(format_table(
        ["NF", "rd H/P", "wr H/P", "bits", "drop", "description"],
        rows, title="NF catalog (Table II action profiles)",
    ))
    return 0


def _cmd_elements() -> int:
    from repro.elements.config import registered_elements
    for name in registered_elements():
        print(name)
    return 0


def _cmd_experiments_list() -> int:
    for name, module_name in sorted(EXPERIMENTS.items()):
        module = importlib.import_module(module_name)
        doc = (module.__doc__ or "").strip().splitlines()
        print(f"{name:10s} {doc[0] if doc else ''}")
    return 0


def _cmd_experiments_run(name: str, full: bool,
                         trace_path: Optional[str] = None,
                         jobs: int = 1, no_cache: bool = False,
                         cache_dir: Optional[str] = None) -> int:
    import inspect

    from repro.experiments.common import make_runner
    from repro.obs import Trace, use_trace

    module = importlib.import_module(EXPERIMENTS[name])
    trace = Trace(name=f"experiments/{name}") if trace_path else None
    # One runner for the whole harness run: every sweep the harness
    # launches shares the worker pool budget and the result cache.
    runner = make_runner(jobs=jobs, use_cache=not no_cache,
                         cache_dir=cache_dir)
    kwargs = {"quick": not full, "jobs": jobs, "runner": runner}
    accepted = inspect.signature(module.main).parameters
    kwargs = {key: value for key, value in kwargs.items()
              if key in accepted}
    with (use_trace(trace) if trace is not None
          else contextlib.nullcontext()):
        print(module.main(**kwargs))
    if trace is not None:
        trace.write_ndjson(trace_path)
        print(f"trace: {len(trace.spans)} spans -> {trace_path}")
    return 0


def _cmd_chaos(args) -> int:
    from repro.experiments.common import make_runner
    from repro.faults import chaos
    from repro.obs import Trace, use_trace

    if args.seeds < 1:
        print("--seeds must be at least 1", file=sys.stderr)
        return 2
    runner = make_runner(jobs=args.jobs, use_cache=not args.no_cache,
                         cache_dir=args.cache_dir)
    trace = Trace(name="chaos") if args.trace else None
    with (use_trace(trace) if trace is not None
          else contextlib.nullcontext()):
        rows = chaos.run(quick=not args.full,
                         seeds=range(args.seeds),
                         jobs=args.jobs, runner=runner)
    print(chaos.render(rows))
    if trace is not None:
        trace.write_ndjson(args.trace)
        print(f"trace: {len(trace.spans)} spans -> {args.trace}")
    violations = [r for r in rows if not r.conserved]
    if violations:
        # The chaos grid is a regression gate, not just a report.
        print(f"chaos: {len(violations)} conservation violation(s)",
              file=sys.stderr)
        return 1
    return 0


def _make_spec(packet_size: int, load: float, seed: int, arrivals=None):
    from repro.traffic.distributions import FixedSize, IMIXSize
    from repro.traffic.generator import TrafficSpec
    size_law = FixedSize(packet_size) if packet_size else IMIXSize()
    return TrafficSpec(size_law=size_law, offered_gbps=load, seed=seed,
                       arrivals=arrivals)


def _make_arrivals(args):
    """The deploy command's ``--arrivals`` process, or ``None``."""
    from repro.traffic.arrivals import MMPP, DiurnalRamp, Poisson

    if args.arrivals == "constant":
        return None  # the spec's default clock, bit-identical path
    if args.arrivals == "poisson":
        return (Poisson() if args.arrival_seed is None
                else Poisson(seed=args.arrival_seed))
    if args.arrivals == "mmpp":
        kwargs = {"burst_factor": args.burst, "duty_cycle": args.duty}
        if args.arrival_seed is not None:
            kwargs["seed"] = args.arrival_seed
        return MMPP(**kwargs)
    return DiurnalRamp()


def _make_overload(args):
    """The deploy command's ``OverloadConfig``, or ``None``."""
    from repro.overload import (
        CircuitBreaker,
        OverloadConfig,
        RetryPolicy,
        SLOFeedbackAdmission,
        TokenBucketAdmission,
        parse_drop_policy,
    )

    admission = None
    if args.admission == "token":
        admission = TokenBucketAdmission()
    elif args.admission == "slo":
        if args.slo_ms is None:
            raise ValueError("--admission slo needs --slo-ms")
        admission = SLOFeedbackAdmission(p99_ms=args.slo_ms)
    breaker = retry = None
    if args.retry_budget is not None:
        breaker = CircuitBreaker()
        retry = RetryPolicy(budget=args.retry_budget)
    config = OverloadConfig(
        queue_limit=args.queue_limit,
        drop_policy=parse_drop_policy(args.drop_policy),
        admission=admission,
        breaker=breaker,
        retry=retry,
        slo_ms=args.slo_ms,
    )
    return None if config.is_noop else config


def _cmd_deploy(args) -> int:
    from repro.core.compass import NFCompass
    from repro.hw.platform import PlatformSpec
    from repro.nf.base import ServiceFunctionChain
    from repro.nf.catalog import NF_CATALOG, make_nf

    nf_types = [t.strip() for t in args.chain.split(",") if t.strip()]
    unknown = [t for t in nf_types if t not in NF_CATALOG]
    if unknown:
        print(f"unknown NF types {unknown}; known: "
              f"{sorted(NF_CATALOG)}", file=sys.stderr)
        return 2
    from repro.obs import NULL_TRACE, Trace

    try:
        arrivals = _make_arrivals(args)
    except ValueError as error:
        print(f"invalid arrival process: {error}", file=sys.stderr)
        return 2
    try:
        overload = _make_overload(args)
    except ValueError as error:
        print(f"invalid overload config: {error}", file=sys.stderr)
        return 2
    spec = _make_spec(args.packet_size, args.load, args.seed,
                      arrivals=arrivals)
    sfc = ServiceFunctionChain([make_nf(t) for t in nf_types])
    compass = NFCompass(platform=PlatformSpec.paper_testbed(),
                        algorithm=args.algorithm)
    trace = Trace(name=f"deploy:{args.chain}") if args.trace \
        else NULL_TRACE
    result = compass.run(sfc, spec, batch_size=args.batch,
                         batch_count=args.batches, trace=trace,
                         overload=overload)
    print(result.plan.describe())
    report = result.report
    print(report.summary())
    bottleneck = report.bottleneck_processor()
    if bottleneck is not None:
        utilization = report.utilization().get(bottleneck, 0.0)
        print(f"bottleneck: {bottleneck} "
              f"({utilization:.0%} busy over the makespan)")
    if arrivals is not None:
        print(f"arrivals: {arrivals!r}")
    if overload is not None:
        ledger = report.ledger
        print(f"overload: drop rate {report.drop_rate:.1%}, "
              f"shed {report.shed_fraction:.1%}, "
              f"goodput {report.goodput_gbps:.2f} Gbps")
        print(f"  queue drops {ledger.queue_dropped_batches} "
              f"batch(es), breaker trips {ledger.breaker_trips}, "
              f"retries {ledger.retry_attempts}")
    deepest = report.deepest_queue
    if deepest is not None:
        print(f"deepest queue: {deepest} "
              f"(peak {report.max_queue_depth[deepest]} batches "
              f"waiting)")
    if args.trace:
        trace.write_ndjson(args.trace)
        print(f"trace: {len(trace.spans)} spans -> {args.trace}")
    return 0


def _cmd_platform_show(args) -> int:
    from dataclasses import replace

    from repro.hw.device import device_kind_defaults, device_kinds
    from repro.hw.platform import PlatformSpec

    platform = PlatformSpec.paper_testbed()
    overrides = {}
    if args.sockets is not None:
        overrides["sockets"] = args.sockets
    if args.gpus is not None:
        overrides["gpus"] = args.gpus
    if overrides:
        platform = replace(platform, **overrides)
    if args.smartnic:
        platform = platform.with_smartnic()
    print(f"platform: {platform.sockets} socket(s) x "
          f"{platform.cpu.cores} cores, {platform.gpus} GPU(s), "
          f"{len(platform.extra_devices)} extra device(s)")
    print(platform.describe_devices())
    if args.kinds:
        print("\nregistered device kinds:")
        for kind in device_kinds():
            fields = device_kind_defaults(kind)
            print(f"  {kind}: "
                  + (", ".join(f"{k}={v}" for k, v in sorted(
                      fields.items())) or "(host defaults)"))
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import Trace, format_trace_summary

    try:
        trace = Trace.read_ndjson(args.path)
    except (OSError, ValueError) as error:
        print(f"cannot read trace {args.path!r}: {error}",
              file=sys.stderr)
        return 2
    print(format_trace_summary(trace, top_sim_spans=args.sim_spans))
    return 0


def _cmd_validate(args) -> int:
    """Run the three validation oracles; exit 1 on any violation."""
    import random

    from repro.nf.base import ServiceFunctionChain
    from repro.nf.catalog import make_nf
    from repro.validate import (
        MAX_BRUTE_FORCE_NODES,
        ValidatingRecorder,
        audit_partitioners,
        random_chain_spec,
        random_partition_graph,
        random_traffic_spec,
        run_differential,
    )

    if args.partition_nodes > MAX_BRUTE_FORCE_NODES:
        print(f"--partition-nodes {args.partition_nodes} exceeds the "
              f"brute-force enumeration limit of "
              f"{MAX_BRUTE_FORCE_NODES}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    failures = 0

    print(f"[1/3] differential: {args.chains} random chains, "
          f"{args.packets} packets each (seed {args.seed})")
    for index in range(args.chains):
        chain_spec = random_chain_spec(rng, max_len=args.max_len,
                                       name=f"validate-{index}")
        traffic = random_traffic_spec(rng)
        algorithm = "kl" if index % 2 == 0 else "agglomerative"
        report = run_differential(
            chain_spec, traffic_spec=traffic,
            packet_count=args.packets, batch_size=args.batch,
            algorithm=algorithm,
        )
        if not report.ok:
            failures += 1
        if args.verbose or not report.ok:
            print(report.summary())
        elif (index + 1) % 5 == 0:
            print(f"  ... {index + 1}/{args.chains} chains equivalent")

    print(f"[2/3] partition oracle: {args.partition_graphs} random "
          f"graphs, <= {args.partition_nodes} nodes")
    for index in range(args.partition_graphs):
        graph = random_partition_graph(rng,
                                       max_nodes=args.partition_nodes)
        audit = audit_partitioners(graph)
        if not audit.ok:
            failures += 1
        if args.verbose or not audit.ok:
            print(audit.summary())

    print(f"[3/3] engine invariants: {args.engine_runs} simulated "
          f"deployments under the ValidatingRecorder")
    from repro.core.compass import NFCompass, ProfileConfig
    from repro.validate.invariants import InvariantViolation, \
        verify_timeline
    for index in range(args.engine_runs):
        chain_spec = random_chain_spec(rng, max_len=args.max_len,
                                       name=f"validate-sim-{index}")
        traffic = random_traffic_spec(rng)
        sfc = ServiceFunctionChain(
            [make_nf(t, name=f"{chain_spec.name}.{i}.{t}")
             for i, t in enumerate(chain_spec.nf_types)],
            name=chain_spec.name,
        )
        compass = NFCompass(
            algorithm="kl" if index % 2 == 0 else "agglomerative"
        )
        plan = compass.deploy(sfc, traffic, batch_size=args.batch)
        # The measured branch profile tells the analytic engine how
        # much traffic each edge and merge carries; without it, merge
        # dedup is invisible and conservation trips falsely.
        profile = plan.profile(
            traffic,
            ProfileConfig(sample_packets=256, batch_size=args.batch),
        )
        session = plan.session or compass.engine.session(plan.deployment)
        recorder = ValidatingRecorder(batch_size=args.batch)
        try:
            session.run(traffic, batch_size=args.batch, batch_count=40,
                        branch_profile=profile, recorder=recorder)
        except InvariantViolation as violation:
            failures += 1
            print(f"  {chain_spec.name}: {violation}")
        else:
            timeline_problems = verify_timeline(session.last_timeline)
            if timeline_problems:
                failures += 1
                for problem in timeline_problems:
                    print(f"  {chain_spec.name}: timeline {problem}")
            elif args.verbose:
                print(f"  {chain_spec.name} "
                      f"({' -> '.join(chain_spec.nf_types)}): OK")

    if failures:
        print(f"validate: {failures} check(s) FAILED")
        return 1
    print("validate: all checks passed")
    return 0


def _cmd_config_run(args) -> int:
    from repro.elements.config import parse_config
    from repro.sim.engine import BranchProfile, SimulationEngine
    from repro.sim.mapping import Deployment, Mapping

    with open(args.path) as handle:
        graph = parse_config(handle.read(), name=args.path)
    print(graph.describe())
    spec = _make_spec(args.packet_size, args.load, seed=1)
    engine = SimulationEngine()
    mapping = Mapping.all_cpu(
        graph, cores=engine.platform.cpu_processor_ids(6)
    )
    deployment = Deployment(graph, mapping, name=args.path)
    profile = BranchProfile.measure(graph.clone(), spec,
                                    sample_packets=256,
                                    batch_size=args.batch)
    session = engine.session(deployment)
    report = session.run(spec, batch_size=args.batch,
                         batch_count=args.batches,
                         branch_profile=profile)
    print(report.summary())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch to the selected command."""
    args = _build_parser().parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    if args.command == "nf":
        return _cmd_nf_list()
    if args.command == "elements":
        return _cmd_elements()
    if args.command == "experiments":
        if args.exp_command == "list":
            return _cmd_experiments_list()
        return _cmd_experiments_run(args.name, args.full, args.trace,
                                    jobs=args.jobs,
                                    no_cache=args.no_cache,
                                    cache_dir=args.cache_dir)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "deploy":
        return _cmd_deploy(args)
    if args.command == "platform":
        return _cmd_platform_show(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "config":
        return _cmd_config_run(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
