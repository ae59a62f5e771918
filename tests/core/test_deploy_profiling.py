"""How a deploy profiles: one functional pass per candidate, on a clone.

``NFCompass`` serves the allocator, the capacity race and the final
simulation from a single pass per candidate structure.  These tests
pin what that must not change: the deployed graph is never run, every
profile a deploy consumes equals a fresh ``BranchProfile.measure`` on
a pristine clone, and the reports match digests recorded before the
single-pass profiling existed.
"""

import pytest

from repro.core.compass import NFCompass
from repro.experiments import fig17_real_sfc as fig17
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.nf.dpi import IntrusionDetectionSystem
from repro.nf.firewall import Firewall
from repro.obs import Trace
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
#: must not move any output.
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
#: The quick Fig. 17 rows at 200 rules and 64 B packets.
FIG17_ROWS = \
    "66a3a5a9516dd56763029ec70986fee8a93b5db24689e94837cd675a0d4e7014"

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

    def test_no_profile_outlives_the_call(self):
        compass = NFCompass()
        spec = non_degenerate_spec()
        assert compass.deploy(non_degenerate_chain(), spec)._profiles == {}
        result = compass.run(non_degenerate_chain(), spec, batch_count=20)
        assert result.plan._profiles == {}


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


class TestOutputsUnchanged:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_five_nf_reports(self, seed):
        result = NFCompass().run(five_nf_chain(), five_nf_spec(seed),
                                 batch_size=BATCH, batch_count=RUN_BATCHES)
        assert canonical_fingerprint(result.report) == FIVE_NF_REPORT

    @pytest.mark.parametrize("extra,seed", sorted(NON_DEGENERATE_REPORTS))
    def test_non_degenerate_reports(self, extra, seed):
        result = NFCompass().run(non_degenerate_chain(extra),
                                 non_degenerate_spec(seed),
                                 batch_size=BATCH, batch_count=RUN_BATCHES)
        assert canonical_fingerprint(result.report) == \
            NON_DEGENERATE_REPORTS[extra, seed]

    def test_fig17_quick_rows(self):
        rows = fig17.run(quick=True, acl_sizes=(200,), packet_sizes=(64,),
                         runner=SweepRunner(jobs=1))
        assert canonical_fingerprint(rows) == FIG17_ROWS
