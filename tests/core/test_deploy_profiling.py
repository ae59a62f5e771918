"""How a deploy profiles: one functional pass per candidate, on a clone.

``NFCompass`` serves the allocator, the capacity race and the final
simulation from a single pass per candidate structure.  These tests
pin what that must not change: the deployed graph is never run, every
profile a deploy consumes equals a fresh ``BranchProfile.measure`` on
a pristine clone, and the reports match digests recorded before the
single-pass profiling existed.
"""

import pytest
from builders import ledgerless_fingerprint

from repro.core.compass import NFCompass
from repro.core.multi import MultiTenantScheduler
from repro.experiments import fig14_reorganization as fig14
from repro.experiments import fig17_real_sfc as fig17
from repro.experiments import load_latency
from repro.faults import FaultTimeline, ResilientRuntime
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.nf.dpi import IntrusionDetectionSystem
from repro.nf.firewall import Firewall
from repro.obs import Trace, use_trace
from repro.runner import SweepRunner, canonical_fingerprint
from repro.sim.engine import BranchProfile
from repro.sim.kernel import SimulationSession
from repro.traffic.acl import generate_acl
from repro.traffic.distributions import FixedSize
from repro.traffic.dpi_profiles import make_pattern_set
from repro.traffic.generator import TrafficSpec

BATCH = 64
RUN_BATCHES = 200

#: ``canonical_fingerprint`` of ``NFCompass().run`` reports, recorded
#: before deploys profiled once per candidate: single-pass profiling
#: must not move any output.  Reports have since gained a ledger, so
#: these hash them without it (``ledgerless_fingerprint``).
FIVE_NF_REPORT = \
    "b916f28b040f6122778c563643df94ce4d917de39b1768018d9780e34aeb3e87"
NON_DEGENERATE_REPORTS = {
    ((), 3):
        "366974bbb81b39e40aaa39af25ba9206f10715ef32cea16a5ba9008e3148c07b",
    (("ipsec",), 3):
        "6102c686da5b1df7e2ff49bf6bf78277ca97717905aaca24c116814d4f21119c",
    (("ipsec",), 7):
        "4bde1e531e1fe74c6835c5da7818e8bc26296307cb41e44a477494a1b14b5363",
}
#: The ledger of every report above: the runs are fault-free,
#: unprotected and constant-rate at 40 Gbps, so all it holds is the
#: peak rate.
PLAIN_LEDGER = \
    "f37329bffb9eaa8bf563a552eb1a33c47005b03d473e714d78fcda84a0873b04"
#: The quick Fig. 17 rows at 200 rules and 64 B packets.
FIG17_ROWS = \
    "66a3a5a9516dd56763029ec70986fee8a93b5db24689e94837cd675a0d4e7014"
#: The quick Fig. 17 rows at 10 000 rules and 64 B packets: the
#: pipeline benchmark's ``sweep-fig17`` op.
FIG17_OP_ROWS = \
    "df60243c768cadc1e868370ca50ed16401f0712212dd35b3bd09baf4e9754099"
#: Every Fig. 17 row of the quick grid and of the full-scale grid
#: (``quick=False``), recorded while each point still deployed its
#: systems once per phase.
FIG17_GRID_ROWS = {
    True:
        "cae8b55ffc00bc0ab798924e77588083084c40fa06899d24c5766ff8f2defc13",
    False:
        "ca24705821349b50ae80343ce116dfdcb9aac7442372cfd02495aa8bd92b2031",
}

_PATTERN = make_pattern_set()[0]


def _ids_bait(rng, size):
    """Random payloads, about 40 % of them carrying an IDS pattern."""
    body = bytes(rng.randrange(256) for _ in range(size))
    if rng.random() < 0.4:
        body = _PATTERN + body[len(_PATTERN):]
    return body


def five_nf_chain():
    return ServiceFunctionChain(
        [make_nf(kind) for kind in ("firewall", "ids", "nat", "ipsec", "dpi")]
    )


def non_degenerate_chain(extra=("ipsec",)):
    """A firewall with deny rules and an IDS that drops about 40 % of
    the traffic, so measured fractions depend on the sample."""
    return ServiceFunctionChain(
        [Firewall(rules=generate_acl(200, deny_fraction=0.3), name="fw"),
         IntrusionDetectionSystem(name="ids")]
        + [make_nf(kind) for kind in extra]
    )


def non_degenerate_spec(seed=3):
    return TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                       seed=seed, payload_maker=_ids_bait)


def five_nf_spec(seed):
    return TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0, seed=seed)


def packets_processed(graph):
    return {node: graph.element(node).packets_processed
            for node in graph.nodes}


class TestDeployedGraphIsNeverRun:
    @pytest.mark.parametrize("chain", [five_nf_chain, non_degenerate_chain])
    def test_after_deploy(self, chain):
        spec = non_degenerate_spec()
        plan = NFCompass().deploy(chain(), spec, batch_size=BATCH)
        assert set(packets_processed(plan.graph).values()) == {0}

    @pytest.mark.parametrize("chain", [five_nf_chain, non_degenerate_chain])
    def test_after_run(self, chain):
        spec = non_degenerate_spec()
        result = NFCompass().run(chain(), spec, batch_size=BATCH,
                                 batch_count=20)
        assert set(packets_processed(result.plan.graph).values()) == {0}

    def test_single_candidate_deploy(self):
        compass = NFCompass(enable_parallelization=False)
        plan = compass.deploy(non_degenerate_chain(), non_degenerate_spec())
        assert set(packets_processed(plan.graph).values()) == {0}


class TestPlanKeepsItsMeasurements:
    """A plan carries the session and both profiles its deploy took;
    each profile equals a fresh measure on a pristine clone."""

    @pytest.mark.parametrize("batch_size", [32, 64, 256])
    @pytest.mark.parametrize("parallelize", [True, False],
                             ids=["racing", "single-candidate"])
    def test_profiles_equal_fresh_measures(self, batch_size,
                                           parallelize):
        spec = non_degenerate_spec()
        compass = NFCompass(enable_parallelization=parallelize)
        plan = compass.deploy(non_degenerate_chain(), spec,
                              batch_size=batch_size)
        race = max(128, 2 * batch_size)
        run = max(256, 4 * batch_size)
        assert plan.race_profile == BranchProfile.measure(
            plan.graph.clone(), spec, race, batch_size)
        assert plan.run_profile == BranchProfile.measure(
            plan.graph.clone(), spec, run, batch_size)
        assert plan.race_profile != plan.run_profile
        assert plan.session.deployment is plan.deployment
        assert set(packets_processed(plan.graph).values()) == {0}


class TestReusedProfilesEqualFreshMeasures:
    """Every profile a deploy consumes equals a fresh measure of the
    same sample size on a pristine clone of the graph it describes."""

    @pytest.fixture
    def consumed(self, monkeypatch):
        """(graph, batch count, branch profile) of every simulation run,
        capacity-race runs included."""
        calls = []
        original = SimulationSession.run

        def spy(session, spec, *args, **kwargs):
            calls.append((session.deployment.graph,
                          kwargs.get("batch_count"),
                          kwargs.get("branch_profile")))
            return original(session, spec, *args, **kwargs)

        monkeypatch.setattr(SimulationSession, "run", spy)
        return calls

    @pytest.mark.parametrize("seed", [3, 7])
    def test_race_and_run_profiles(self, consumed, seed):
        spec = non_degenerate_spec(seed)
        result = NFCompass().run(non_degenerate_chain(), spec,
                                 batch_size=BATCH, batch_count=RUN_BATCHES)
        race = [(graph, profile) for graph, count, profile in consumed
                if count == 40]
        final = [(graph, profile) for graph, count, profile in consumed
                 if count == RUN_BATCHES]
        assert len(race) == 2 and len(final) == 1
        for graph, profile in race:
            assert set(packets_processed(graph).values()) == {0}
            assert profile == BranchProfile.measure(graph.clone(), spec,
                                                    128, BATCH)
        graph, profile = final[0]
        assert graph is result.plan.graph
        fresh = BranchProfile.measure(graph.clone(), spec, 256, BATCH)
        assert profile == fresh
        # The fractions really depend on the sample: a stale or
        # polluted profile could not pass for a fresh one.
        assert fresh != BranchProfile.measure(graph.clone(), spec, 128,
                                              BATCH)
        assert any(0.0 < f < 1.0 for f in fresh.drop_fractions.values())

    def test_allocator_gets_the_full_sample(self):
        spec = non_degenerate_spec()
        plan = NFCompass().deploy(non_degenerate_chain(), spec)
        fresh = BranchProfile.measure(plan.graph.clone(), spec, 256, BATCH)
        expected = NFCompass().allocator.allocate(
            plan.graph, spec, batch_size=BATCH, branch_profile=fresh)[1]
        assert plan.allocation_report.node_shares == expected.node_shares
        assert plan.offload_ratios == expected.offload_ratios


class TestOnePassPerCandidate:
    def test_racing_deploy_profiles_twice(self):
        trace = Trace("deploy")
        NFCompass().run(five_nf_chain(), five_nf_spec(0), batch_size=BATCH,
                        batch_count=20, trace=trace)
        spans = [span for span in trace.spans if span.name == "profile"]
        assert len(spans) == 2
        assert len({span.attrs["graph"] for span in spans}) == 2
        assert all(span.attrs["sample_packets"] == 256 for span in spans)

    def test_single_candidate_profiles_once(self):
        trace = Trace("deploy")
        NFCompass(enable_parallelization=False).run(
            five_nf_chain(), five_nf_spec(0), batch_size=BATCH,
            batch_count=20, trace=trace)
        assert [span.name for span in trace.spans].count("profile") == 1

    def test_epoch_runtime_profiles_only_in_its_deploy(self):
        """A runtime runs its epochs on the plan's race profile: its
        construction profiles each deploy candidate once, nothing
        more."""
        trace = Trace("runtime")
        ResilientRuntime(
            ServiceFunctionChain([make_nf(kind) for kind in
                                  ("firewall", "ids", "nat")]),
            five_nf_spec(0), FaultTimeline([]), trace=trace)
        names = [span.name for span in trace.spans]
        assert names.count("deploy") == 1
        assert names.count("profile") == 2

    def test_tenants_profile_only_in_their_deploys(self):
        trace = Trace("tenants")
        workloads = [(kind, ServiceFunctionChain([make_nf(kind)]),
                      five_nf_spec(0)) for kind in ("firewall", "ipsec")]
        with use_trace(trace):
            MultiTenantScheduler().deploy(workloads, batch_size=BATCH)
        names = [span.name for span in trace.spans]
        assert names.count("deploy") == 2
        assert names.count("profile") == 2

    def test_fig17_deploys_each_system_once_per_cell(self):
        """A Fig. 17 cell's capacity and latency runs share one
        deployment per system: one NFCompass deploy per cell, whose
        two candidates profile once each."""
        trace = Trace("fig17")
        with use_trace(trace):
            fig17.run(quick=True, acl_sizes=(200, 1000),
                      packet_sizes=(64, 128), runner=SweepRunner(jobs=1))
        names = [span.name for span in trace.spans]
        assert names.count("deploy") == 4
        assert names.count("profile") == 8


class TestOneDeploymentPerPoint:
    """A harness point deploys each configuration once and runs
    capacity and every latency run on that one session."""

    @staticmethod
    def traced(spec):
        trace = Trace("harness")
        with use_trace(trace):
            SweepRunner(jobs=1).run(spec)
        counters = {name: counter.value
                    for name, counter in trace.metrics.counters.items()}
        return [span.name for span in trace.spans], counters

    def test_fig14_group_shares_each_session(self):
        """Two (NF, platform) groups of two configurations: each
        session runs capacity, then latency."""
        _names, counters = self.traced(fig14.sweep_spec(
            nf_types=("firewall",), configs=("a", "b")))
        assert counters["runner.points"] == 2
        assert counters["session.cache_hits"] == 4

    def test_load_sweep_deploys_each_system_once(self):
        names, counters = self.traced(load_latency.latency_sweep_spec(
            nf_types=("firewall",), fractions=(0.5, 1.0)))
        assert names.count("deploy") == 1
        assert counters["session.cache_hits"] == 4

    def test_overload_sweep_deploys_each_mode_once(self):
        names, _counters = self.traced(load_latency.overload_sweep_spec(
            nf_types=("firewall",), modes=("constant", "onoff"),
            multiples=(0.8, 2.0)))
        assert names.count("deploy") == 2


class TestOutputsUnchanged:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_five_nf_reports(self, seed):
        result = NFCompass().run(five_nf_chain(), five_nf_spec(seed),
                                 batch_size=BATCH, batch_count=RUN_BATCHES)
        assert ledgerless_fingerprint(result.report) == FIVE_NF_REPORT
        assert canonical_fingerprint(result.report.ledger) == PLAIN_LEDGER

    @pytest.mark.parametrize("extra,seed", sorted(NON_DEGENERATE_REPORTS))
    def test_non_degenerate_reports(self, extra, seed):
        result = NFCompass().run(non_degenerate_chain(extra),
                                 non_degenerate_spec(seed),
                                 batch_size=BATCH, batch_count=RUN_BATCHES)
        assert ledgerless_fingerprint(result.report) == \
            NON_DEGENERATE_REPORTS[extra, seed]
        assert canonical_fingerprint(result.report.ledger) == PLAIN_LEDGER

    def test_fig17_quick_rows(self):
        rows = fig17.run(quick=True, acl_sizes=(200,), packet_sizes=(64,),
                         runner=SweepRunner(jobs=1))
        assert canonical_fingerprint(rows) == FIG17_ROWS

    def test_fig17_benchmark_op_rows(self):
        rows = fig17.run(quick=True, acl_sizes=(10000,),
                         packet_sizes=(64,), runner=SweepRunner(jobs=1))
        assert canonical_fingerprint(rows) == FIG17_OP_ROWS

    @pytest.mark.slow
    @pytest.mark.parametrize("quick", [True, False])
    def test_fig17_grid_rows(self, quick):
        rows = fig17.run(quick=quick, runner=SweepRunner(jobs=1))
        assert len(rows) == 27
        assert canonical_fingerprint(rows) == FIG17_GRID_ROWS[quick]
