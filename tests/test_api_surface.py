"""API-surface snapshots.

The redesigned deployment API promises a stable set of top-level
names; these snapshots fail loudly when an export is dropped or
renamed, which is an API break that needs a deliberate decision (and a
deprecation path), not an accident.  The parameter snapshots fail just
as loudly when an option is added: every option must have a caller.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro
import repro.elements
import repro.hw
import repro.net
import repro.nf
import repro.obs
import repro.overload
import repro.runner
import repro.sim
import repro.traffic
from repro.cli import EXPERIMENTS
from repro.core.adaptation import AdaptiveRuntime
from repro.core.compass import NFCompass
from repro.core.multi import MultiTenantScheduler
from repro.core.synthesizer import NFSynthesizer
from repro.elements.graph import ElementGraph
from repro.experiments import common
from repro.faults import ResilientRuntime
from repro.faults.spec import FaultTimeline
from repro.hw.costs import CostModel
from repro.hw.gpu import GpuTiming
from repro.net import batch
from repro.nf import dpi, firewall, ipv4
from repro.nf.dpi import DeepPacketInspector, PatternMatch
from repro.nf.ipsec import hmac_sha1
from repro.nf.stateful_dpi import StatefulPatternMatch
from repro.runner import SweepRunner, SweepSpec, run_sweep
from repro.sim.engine import SimulationEngine
from repro.sim.tracing import EventRecorder
from repro.traffic.acl import generate_acl
from repro.validate import random_partition_graph, run_differential

#: ``ProfileConfig`` was removed on purpose: a ``CompassPlan`` carries
#: the race and run profiles its deploy measured, so no caller chooses
#: sample sizes.  ``ResultCache`` was removed on purpose with the sweep
#: result cache: every sweep computes every point it returns.
#: ``deployment_fingerprint`` was removed on purpose: it keyed only that
#: cache, and every digest pin hashes through ``canonical_fingerprint``.
REPRO_ALL = [
    "AdaptiveRuntime",
    "CircuitBreaker",
    "CompassPlan",
    "DeploymentResult",
    "EpochResult",
    "FaultSpec",
    "FaultTimeline",
    "GraphTaskAllocator",
    "MultiTenantScheduler",
    "NFCompass",
    "NFSynthesizer",
    "NF_CATALOG",
    "OverloadConfig",
    "PlatformSpec",
    "ResilientRuntime",
    "RetryPolicy",
    "Runtime",
    "SFCOrchestrator",
    "SLOFeedbackAdmission",
    "SimulationEngine",
    "SimulationSession",
    "SweepRunner",
    "SweepSpec",
    "ThroughputLatencyReport",
    "TokenBucketAdmission",
    "Trace",
    "make_nf",
    "run_sweep",
    "use_trace",
    "__version__",
]

#: Removed on purpose with the sweep result cache: ``ResultCache`` and
#: its on-disk ``CACHE_FORMAT_VERSION``; ``ENGINE_VERSION`` and
#: ``deployment_fingerprint``, which only built its keys (a package
#: version says nothing of the code that computed a row); and
#: ``encode_rows``, its dict wire format (a point's rows come back as
#: the point built them, and the pool pickles them).
RUNNER_ALL = [
    "FingerprintError",
    "SHARDS_PER_JOB",
    "SweepRunner",
    "SweepSpec",
    "canonical_fingerprint",
    "canonical_form",
    "run_sweep",
    "shard_indices",
]

#: ``SLO`` and ``SLOViolation`` were removed on purpose, with
#: ``ThroughputLatencyReport.check_slo`` and ``meets_slo``: nothing
#: outside their tests called them.  A run's one SLO is
#: ``OverloadConfig.slo_ms``, which the kernel judges goodput against.
SIM_ALL = [
    "Placement",
    "Mapping",
    "Deployment",
    "ThroughputLatencyReport",
    "OverheadBreakdown",
    "ResourceTimeline",
    "SimulationSession",
    "SimulationEngine",
    "BranchProfile",
    "EventRecorder",
    "NodeEvent",
    "BatchEvent",
    "RequeueEvent",
]

OVERLOAD_ALL = [
    "AdmissionController",
    "CircuitBreaker",
    "ControllerState",
    "DROP_POLICY_NAMES",
    "DeadlineDrop",
    "DropPolicy",
    "HeadDrop",
    "OverloadConfig",
    "RetryPolicy",
    "SLOFeedbackAdmission",
    "TailDrop",
    "TokenBucketAdmission",
    "parse_drop_policy",
]

#: ``GPUCompletionQueue`` was removed on purpose: partial offload is
#: modelled once, as the ``Placement`` shares the event kernel prices,
#: and no graph ever contained the queue.
ELEMENTS_ALL = [
    "ActionProfile",
    "Edge",
    "Element",
    "ElementGraph",
    "OffloadableElement",
    "PortSpec",
    "TrafficClass",
    "parse_config",
    "register_element",
    "standard",
]

#: ``HeaderRegion`` was removed on purpose: nothing used it, and
#: ``ActionProfile.read_regions``/``write_regions`` derive the two
#: regions an element touches.  ``TraceReplay``, ``read_trace`` and
#: ``write_trace`` were removed on purpose with the binary packet
#: capture format no run replayed (the NDJSON span trace is the one
#: trace format), and ``StreamReassembler`` because nothing called it:
#: the stateful IDS releases segments in order itself.
#: ``BatchSplitResult`` was removed on purpose: its
#: ``split_overhead_ops`` was a cost input no cost model read, and
#: ``PacketBatch.split_by`` returns the sub-batches by key.
NET_ALL = [
    "EthernetHeader",
    "FiveTuple",
    "FlowTable",
    "IPv4Header",
    "IPv6Header",
    "Packet",
    "PacketBatch",
    "TCPHeader",
    "UDPHeader",
]

#: ``SIM_CLOCK`` was removed on purpose: every span a trace records
#: is wall-clock.  A loaded span keeps its NDJSON ``clock`` field, so
#: older traces with simulated-time spans still load.
OBS_ALL = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "StageSummary",
    "format_trace_summary",
    "stage_summary",
    "NULL_TRACE",
    "WALL_CLOCK",
    "NullTrace",
    "Span",
    "Trace",
    "current_trace",
    "resolve_trace",
    "use_trace",
]

#: ``TraceArrivals`` was removed on purpose: it replayed batch arrivals
#: from the binary packet capture format, which no run used.
TRAFFIC_ALL = [
    "ArrivalProcess",
    "ConstantRate",
    "DiurnalRamp",
    "MMPP",
    "OnOffBursty",
    "Poisson",
    "attach_arrivals",
    "mean_batch_gap",
    "peak_rate_gbps",
    "FixedSize",
    "UniformSize",
    "IMIXSize",
    "EmpiricalSize",
    "SizeDistribution",
    "IMIX_MIX",
    "TrafficGenerator",
    "TrafficSpec",
    "AclRule",
    "generate_acl",
    "CLASSBENCH_SEED_RANGES",
    "MatchProfile",
    "make_pattern_set",
    "make_payload",
]

#: The DPI exports no regex engine: ``repro.nf.dpi``'s ``DFARegex`` and
#: ``RegexSyntaxError`` were removed on purpose (no chain, harness or
#: config used a regex rule; a later one compiles it with stdlib
#: ``re``), as was ``repro.nf.ipv4.table_from_destinations``, which
#: nothing called.
NF_ALL = [
    "NetworkFunction",
    "ServiceFunctionChain",
    "IPv4Forwarder",
    "LPMTrie",
    "IPv6Forwarder",
    "HashedPrefixTable",
    "IPsecGateway",
    "aes128_ctr",
    "hmac_sha1",
    "DeepPacketInspector",
    "IntrusionDetectionSystem",
    "AhoCorasick",
    "Firewall",
    "NetworkAddressTranslator",
    "LoadBalancer",
    "Probe",
    "Proxy",
    "WANOptimizer",
    "NF_CATALOG",
    "make_nf",
    "action_profile_of",
]

#: ``CostModel.xor_merge_seconds`` was removed on purpose: the kernel
#: prices an ``XorMerge`` through its cycles law, like every element.
#: ``GpuTiming.scaled`` and ``GpuTiming.transfer`` were removed on
#: purpose too: nothing called them.
HW_ALL = [
    "PlatformSpec",
    "CPUSpec",
    "CostModel",
    "CostParams",
    "BatchStats",
    "cache_penalty_factor",
    "GpuTiming",
    "InterferenceModel",
    "NF_PRESSURE_PROFILES",
    "DEFAULT_HOST_DEVICE",
    "DeviceSpec",
    "LinkSpec",
    "CPU_KIND",
    "GPU_KIND",
    "SMARTNIC_KIND",
    "device_kinds",
    "device_kind_defaults",
    "make_device",
    "register_device_kind",
    "smartnic_device",
]

#: Names removed on purpose, by owner, each for want of a caller
#: outside its own tests.  ``AhoCorasick.search`` was a third walk of
#: the automaton: the stateless scan is the compiled alternation and
#: the stateful IDS walks ``step``.  ``ElementGraph.redirect_edge`` had
#: no caller at all.  ``LinearMatcher`` was a second copy of the
#: reference ``repro.traffic.acl.linear_match``: every firewall
#: classifies with one ``TupleSpaceMatcher``, and its matcher kind is
#: only a price.  ``LPMTrie.lookup_with_depth`` counted the trie nodes
#: a lookup touched; the FIB is one hash table per prefix length, and
#: only its own test called it.
REMOVED = {
    dpi: ["DFARegex", "RegexSyntaxError"],
    dpi.AhoCorasick: ["search"],
    ipv4: ["table_from_destinations"],
    ipv4.LPMTrie: ["lookup_with_depth"],
    CostModel: ["xor_merge_seconds"],
    GpuTiming: ["scaled", "transfer"],
    ElementGraph: ["redirect_edge"],
    firewall: ["LinearMatcher"],
    batch: ["BatchSplitResult"],
}

#: The ACL matcher kinds, each a price of the one classifier.  The
#: ``"linear"`` kind was removed on purpose: no chain, harness, config
#: or benchmark selected it.
MATCHER_KINDS = ("tuple_space", "tree")

#: The public methods of ``EventRecorder``.  Removed on purpose, for
#: want of a caller outside their own tests: ``from_dict``,
#: ``from_json``, ``summary``, ``node_spans``, ``bottleneck_node`` and
#: ``critical_path``.  ``events_for_batch`` stays for ``repro
#: validate``'s ``ValidatingRecorder``, ``to_json`` for golden parity.
RECORDER_METHODS = ["events_for_batch", "record_batch", "record_node",
                    "record_requeue", "to_dict", "to_json"]


#: Parameter names of the deploy, runtime and engine entry points, and
#: of the elements and helpers whose never-set knobs went.
#: Removed on purpose, each for want of a caller: NFCompass's
#: ``delta``, ``persistent_kernel`` (it always deploys persistent
#: kernels), ``cost_model`` and ``independence_override`` (set
#: ``compass.orchestrator = SFCOrchestrator(independence_override=...)``,
#: the layer that owns it); ``max_width`` on ``build_graph``,
#: ``deploy`` and ``run`` (``SFCOrchestrator.parallelize`` keeps it);
#: the ``**compass_kwargs`` of ``ResilientRuntime`` and
#: ``MultiTenantScheduler`` and the scheduler's ``interference``; and
#: ``SimulationEngine.run``, a one-shot forward to
#: ``engine.session(deployment).run``.  ``format_trace_summary`` lost
#: ``top_sim_spans`` (and ``repro trace`` its ``--sim-spans``) with the
#: simulated-time spans it listed; ``EventRecorder.to_json`` lost
#: ``indent``, which only a deleted read-back test passed; and
#: ``common.measure`` takes the ``session`` it runs on, not an engine
#: and a deployment, so a deploy's plan runs on its own session.
#: ``SweepRunner`` lost ``cache`` and ``SweepSpec`` lost ``row_type``,
#: ``context`` and ``engine_version``, all of which existed only to key
#: the sweep result cache or to carry rows through it.  Removed on
#: purpose with the knobs no caller set: the ``regexes`` of
#: ``PatternMatch`` and ``DeepPacketInspector`` (and so of
#: ``IntrusionDetectionSystem``), with the DFA regex engine;
#: ``StatefulPatternMatch``'s ``flow_capacity`` (65,536 flows);
#: ``NFSynthesizer``'s ``enable_io_splice``, ``enable_dedup`` and
#: ``enable_drop_hoist`` (every pass always runs; ``NFCompass``'s
#: ``enable_synthesis`` is the ablation switch);
#: ``FaultTimeline.seeded``'s ``crash_weight``,
#: ``mean_outage_fraction``, ``max_factor`` and ``requeue_penalty``;
#: ``random_partition_graph``'s ``min_nodes`` (now the
#: ``MIN_PARTITION_NODES`` floor ``repro validate`` checks);
#: ``run_differential``'s ``check_state`` (state is always compared);
#: and ``hmac_sha1``'s ``truncate`` (the 12-byte ICV
#: ``ESP_OVERHEAD_BYTES`` assumes).
ENTRY_POINT_PARAMETERS = {
    "NFCompass.__init__": ["self", "platform", "algorithm",
                           "enable_parallelization", "enable_synthesis",
                           "cpu_cores", "gpus"],
    "NFCompass.build_graph": ["self", "sfc", "trace"],
    "NFCompass.deploy": ["self", "sfc", "spec", "batch_size", "trace"],
    "NFCompass.run": ["self", "sfc", "spec", "batch_size", "batch_count",
                      "trace", "overload"],
    "ResilientRuntime.__init__": ["self", "sfc", "initial_spec", "faults",
                                  "platform", "batch_size",
                                  "readmit_epochs", "arrivals", "overload",
                                  "trace"],
    "MultiTenantScheduler.__init__": ["self", "platform",
                                      "cores_per_tenant", "arrivals",
                                      "overload"],
    "AdaptiveRuntime.__init__": ["self", "compass", "sfc", "initial_spec",
                                 "batch_size", "drift_threshold",
                                 "cooldown_epochs", "arrivals", "overload",
                                 "trace"],
    "SimulationEngine.__init__": ["self", "platform", "cost_model"],
    "SimulationEngine.session": ["self", "deployment"],
    "run_sweep": ["spec", "runner", "trace"],
    "SweepRunner.__init__": ["self", "jobs"],
    "SweepSpec.__init__": ["self", "name", "point", "grid", "params"],
    "format_trace_summary": ["trace", "title"],
    "EventRecorder.to_json": ["self"],
    "common.measure": ["session", "spec", "batch_size", "batch_count",
                       "branch_profile"],
    "PatternMatch.__init__": ["self", "patterns", "pattern_set_id",
                              "name"],
    "DeepPacketInspector.__init__": ["self", "patterns", "name",
                                     "kwargs"],
    "StatefulPatternMatch.__init__": ["self", "patterns",
                                      "pattern_set_id", "name"],
    "NFSynthesizer": [],
    "FaultTimeline.seeded": ["seed", "device_ids", "horizon",
                             "fault_rate"],
    "random_partition_graph": ["rng", "max_nodes"],
    "run_differential": ["chain_spec", "traffic_spec", "packet_count",
                         "batch_size", "compass", "algorithm",
                         "with_partition"],
    "hmac_sha1": ["key", "data"],
}

ENTRY_POINTS = {
    "NFCompass.__init__": NFCompass.__init__,
    "NFCompass.build_graph": NFCompass.build_graph,
    "NFCompass.deploy": NFCompass.deploy,
    "NFCompass.run": NFCompass.run,
    "ResilientRuntime.__init__": ResilientRuntime.__init__,
    "MultiTenantScheduler.__init__": MultiTenantScheduler.__init__,
    "AdaptiveRuntime.__init__": AdaptiveRuntime.__init__,
    "SimulationEngine.__init__": SimulationEngine.__init__,
    "SimulationEngine.session": SimulationEngine.session,
    "run_sweep": run_sweep,
    "SweepRunner.__init__": SweepRunner.__init__,
    "SweepSpec.__init__": SweepSpec.__init__,
    "format_trace_summary": repro.obs.format_trace_summary,
    "EventRecorder.to_json": EventRecorder.to_json,
    "common.measure": common.measure,
    "PatternMatch.__init__": PatternMatch.__init__,
    "DeepPacketInspector.__init__": DeepPacketInspector.__init__,
    "StatefulPatternMatch.__init__": StatefulPatternMatch.__init__,
    "NFSynthesizer": NFSynthesizer,  # it has no __init__ of its own
    "FaultTimeline.seeded": FaultTimeline.seeded,
    "random_partition_graph": random_partition_graph,
    "run_differential": run_differential,
    "hmac_sha1": hmac_sha1,
}

#: Parameter names of every harness sweep builder (``*sweep_spec``),
#: ``run*`` and ``main``, by module.  Each sweep is declared once, by
#: its builder: removed on purpose are the 15 forwarders that restated
#: a builder's parameters before running it (``run`` of fig05, fig06,
#: fig07, fig14, fig15 and the chaos grid, fig08's
#: ``run_batch_sweep``, load-latency's ``run``, ``run_burstiness`` and
#: ``run_overload``, and the ablations' ``run_all`` and four
#: ``ablate_*``), and the knobs no caller passed (every builder's
#: ``batch_size``, the ``packet_size`` of fig06, fig07, fig08 and
#: load-latency, load-latency's ``burst_factor``, ``duty_cycle`` and
#: ``seed``, the ablations' ``deltas``, and the chaos grid's and
#: ``run_interference``'s ``nf_types``), whose values stay in each
#: spec's ``params``.  ``fig17_real_sfc.run`` stays: it chains two
#: sweeps.  ``jobs`` was removed from every entry point before them:
#: a sweep runs on the ``runner`` it is given.
HARNESS_PARAMETERS = {
    "repro.experiments.ablations": {
        "sweep_spec": ["quick", "studies"],
        "main": ["quick", "runner"],
    },
    "repro.experiments.fig05_batch_split": {
        "sweep_spec": ["quick", "stage_counts"],
        "main": ["quick", "runner"],
    },
    "repro.experiments.fig06_offload_ratio": {
        "sweep_spec": ["quick", "nf_types", "ratios"],
        "main": ["quick", "runner"],
    },
    "repro.experiments.fig07_sfc_length": {
        "sweep_spec": ["quick", "cases"],
        "main": ["quick", "runner"],
    },
    "repro.experiments.fig08_characterization": {
        "batch_sweep_spec": ["quick", "nf_types", "batch_sizes"],
        "run_interference": [],
        "main": ["quick", "runner"],
    },
    "repro.experiments.fig14_reorganization": {
        "sweep_spec": ["quick", "nf_types", "configs"],
        "main": ["quick", "runner"],
    },
    "repro.experiments.fig15_gta": {
        "sweep_spec": ["quick", "setups"],
        "main": ["quick", "runner"],
    },
    "repro.experiments.fig17_real_sfc": {
        "cell_sweep_spec": ["acl_sizes", "packet_sizes", "loads", "quick"],
        "run": ["quick", "acl_sizes", "packet_sizes", "runner"],
        "main": ["quick", "runner"],
    },
    "repro.experiments.load_latency": {
        "latency_sweep_spec": ["quick", "nf_types", "fractions"],
        "burstiness_sweep_spec": ["quick", "nf_types", "modes"],
        "overload_sweep_spec": ["quick", "nf_types", "modes", "multiples",
                                "queue_limit", "drop_policy", "slo_ms",
                                "admission"],
        "main": ["quick", "runner"],
    },
    "repro.experiments.tables": {
        "main": ["quick"],
    },
    "repro.faults.chaos": {
        "sweep_spec": ["quick", "seeds"],
        "main": ["quick", "runner"],
    },
}


def parameter_names(function):
    return list(inspect.signature(function).parameters)


class TestSnapshots:
    def test_repro_all(self):
        assert sorted(repro.__all__) == sorted(REPRO_ALL)

    def test_sim_all(self):
        assert sorted(repro.sim.__all__) == sorted(SIM_ALL)

    def test_obs_all(self):
        assert sorted(repro.obs.__all__) == sorted(OBS_ALL)

    def test_runner_all(self):
        assert sorted(repro.runner.__all__) == sorted(RUNNER_ALL)

    def test_overload_all(self):
        assert sorted(repro.overload.__all__) == sorted(OVERLOAD_ALL)

    def test_elements_all(self):
        assert sorted(repro.elements.__all__) == sorted(ELEMENTS_ALL)

    def test_net_all(self):
        assert sorted(repro.net.__all__) == sorted(NET_ALL)

    def test_traffic_all(self):
        assert sorted(repro.traffic.__all__) == sorted(TRAFFIC_ALL)

    def test_nf_all(self):
        assert sorted(repro.nf.__all__) == sorted(NF_ALL)

    def test_hw_all(self):
        assert sorted(repro.hw.__all__) == sorted(HW_ALL)

    def test_removed_names_stay_removed(self):
        assert {owner.__name__: [name for name in names
                                 if hasattr(owner, name)]
                for owner, names in REMOVED.items()} == \
            {owner.__name__: [] for owner in REMOVED}

    def test_matcher_kinds(self):
        rules = generate_acl(5)
        for kind in MATCHER_KINDS:
            firewall.AclClassify(rules, matcher_kind=kind)
        with pytest.raises(ValueError, match="unknown matcher kind"):
            firewall.AclClassify(rules, matcher_kind="linear")


class TestParameters:
    def test_entry_point_parameters(self):
        assert {name: parameter_names(function)
                for name, function in ENTRY_POINTS.items()} == \
            ENTRY_POINT_PARAMETERS

    def test_engine_public_methods(self):
        """A deployment is simulated one way: on its session."""
        public = sorted(name for name in vars(SimulationEngine)
                        if not name.startswith("_"))
        assert public == ["session"]

    def test_recorder_public_methods(self):
        public = sorted(name for name in vars(EventRecorder)
                        if not name.startswith("_")
                        and callable(getattr(EventRecorder, name)))
        assert public == RECORDER_METHODS

    def test_harness_parameters(self):
        """Every harness ``*sweep_spec``, ``run*`` and ``main``, found
        by name in every module the CLI runs plus the chaos grid."""
        modules = sorted(set(EXPERIMENTS.values())) + ["repro.faults.chaos"]
        found = {}
        for module_name in modules:
            module = importlib.import_module(module_name)
            found[module_name] = {
                name: parameter_names(function)
                for name, function in vars(module).items()
                if inspect.isfunction(function)
                and function.__module__ == module_name
                and (name.startswith("run") or name == "main"
                     or name.endswith("sweep_spec"))
            }
        assert found == HARNESS_PARAMETERS


class TestResolvable:
    def test_repro_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_sim_names_resolve(self):
        for name in repro.sim.__all__:
            assert getattr(repro.sim, name) is not None, name

    def test_obs_names_resolve(self):
        for name in repro.obs.__all__:
            assert getattr(repro.obs, name) is not None, name

    def test_runner_names_resolve(self):
        for name in repro.runner.__all__:
            assert getattr(repro.runner, name) is not None, name

    def test_overload_names_resolve(self):
        for name in repro.overload.__all__:
            assert getattr(repro.overload, name) is not None, name

    def test_version_is_a_dotted_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)
        # The package metadata must carry the same version.  A regex,
        # not tomllib: tomllib is Python 3.11+ and CI runs 3.10.
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        match = re.search(r'^version = "([^"]+)"$',
                          pyproject.read_text(encoding="utf-8"),
                          re.MULTILINE)
        assert match is not None
        assert match.group(1) == repro.__version__
