"""API-surface snapshots.

The redesigned deployment API promises a stable set of top-level
names; these snapshots fail loudly when an export is dropped or
renamed, which is an API break that needs a deliberate decision (and a
deprecation path), not an accident.
"""

import re
from pathlib import Path

import repro
import repro.obs
import repro.overload
import repro.runner
import repro.sim

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
    "ProfileConfig",
    "ResilientRuntime",
    "ResultCache",
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
    "deployment_fingerprint",
    "make_nf",
    "run_sweep",
    "use_trace",
    "__version__",
]

RUNNER_ALL = [
    "CACHE_FORMAT_VERSION",
    "ENGINE_VERSION",
    "FingerprintError",
    "ResultCache",
    "SHARDS_PER_JOB",
    "SweepRunner",
    "SweepSpec",
    "canonical_fingerprint",
    "canonical_form",
    "deployment_fingerprint",
    "encode_rows",
    "run_sweep",
    "shard_indices",
]

SIM_ALL = [
    "Placement",
    "Mapping",
    "Deployment",
    "ThroughputLatencyReport",
    "OverheadBreakdown",
    "SLO",
    "SLOViolation",
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
    "SIM_CLOCK",
    "WALL_CLOCK",
    "NullTrace",
    "Span",
    "Trace",
    "current_trace",
    "resolve_trace",
    "use_trace",
]


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
