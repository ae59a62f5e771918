"""How a deploy profiles: one functional pass per candidate, on a clone.

``NFCompass`` serves the allocator, the capacity race and the final
simulation from a single pass per candidate structure.  These tests
pin what that must not change: the deployed graph is never run, every
profile a deploy consumes equals a fresh ``BranchProfile.measure`` on
a pristine clone, and the reports match digests recorded before the
single-pass profiling existed.
"""

from collections import Counter

import pytest
from builders import ledgerless_fingerprint

from repro.core.compass import NFCompass
from repro.core.multi import MultiTenantScheduler
from repro.experiments import ablations
from repro.experiments import fig14_reorganization as fig14
from repro.experiments import fig17_real_sfc as fig17
from repro.experiments import load_latency
from repro.faults import FaultTimeline, ResilientRuntime
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.nf.dpi import IntrusionDetectionSystem
from repro.nf.firewall import AclClassify, Firewall, TupleSpaceMatcher
from repro.nf.ipv4 import LPMTrie
from repro.obs import Trace, use_trace
from repro.runner import SweepRunner, canonical_fingerprint, run_sweep
from repro.sim.engine import BranchProfile
from repro.sim.kernel import SimulationSession
from repro.traffic.acl import generate_acl, packet_fields
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


class TestPlansRunOnTheirSession:
    """A deploy's plan is simulated on the session its deploy built:
    no harness opens a second session for a ``CompassPlan``."""

    @staticmethod
    def sessions_built(monkeypatch, spec):
        """The sessions constructed while ``spec`` runs serially, and
        the ``profile`` spans (one per deploy candidate) it records."""
        built = []
        init = SimulationSession.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SimulationSession, "__init__", counting)
        trace = Trace("sessions")
        with use_trace(trace):
            run_sweep(spec)
        return len(built), [s.name for s in trace.spans].count("profile")

    def test_fig17_cell_builds_four_sessions(self, monkeypatch):
        """One per baseline and one per NFCompass deploy candidate;
        the chosen plan runs capacity and latency on its own."""
        built, profiles = self.sessions_built(
            monkeypatch, fig17.cell_sweep_spec((200,), (64,)))
        assert (built, profiles) == (4, 2)

    def test_reorganization_ablation_runs_on_the_plan_session(
            self, monkeypatch):
        """Every session a reorganization point builds is a deploy
        candidate's."""
        built, profiles = self.sessions_built(
            monkeypatch, ablations.sweep_spec(studies=("reorganization",)))
        assert built == profiles == 6


class TestEachCellBuildsItsTables:
    """Every Fig. 17 cell builds its own ACL, FIB and tuple-space
    table, as a single ``repro experiments run fig17`` does: nothing
    built for one sweep serves a later one.  Only NFCompass's firewall
    fills its tables: the baselines' ``"tree"`` firewalls are only
    priced."""

    @staticmethod
    def counted_builds(monkeypatch, runs):
        """What each of ``runs`` serial quick runs over (200, 1000) x
        (64, 128) builds: every ACL, FIB and tuple-space table fill, in
        build order, and the tables of every ``"tree"`` firewall."""
        generate_acl = fig17.generate_acl
        random_table = LPMTrie.random_table.__func__
        fill = TupleSpaceMatcher._fill
        classify_init = AclClassify.__init__
        builds = []

        def counting_acl(*args, **kwargs):
            rules = generate_acl(*args, **kwargs)
            builds[-1]["acl"].append(rules)
            return rules

        def counting_fib(cls, *args, **kwargs):
            trie = random_table(cls, *args, **kwargs)
            builds[-1]["fib"].append(trie)
            return trie

        def counting_fill(self):
            tables = fill(self)
            builds[-1]["tuple_space"].append(tables)
            return tables

        def recording_classify(self, rules, matcher_kind="tuple_space",
                               **kwargs):
            classify_init(self, rules, matcher_kind, **kwargs)
            if matcher_kind == "tree":
                trees[-1].append(self.matcher._tables)

        monkeypatch.setattr(fig17, "generate_acl", counting_acl)
        monkeypatch.setattr(LPMTrie, "random_table",
                            classmethod(counting_fib))
        monkeypatch.setattr(TupleSpaceMatcher, "_fill", counting_fill)
        monkeypatch.setattr(AclClassify, "__init__", recording_classify)
        trees = []
        for _ in range(runs):
            builds.append({"acl": [], "fib": [], "tuple_space": []})
            trees.append([])
            fig17.run(quick=True, acl_sizes=(200, 1000),
                      packet_sizes=(64, 128), runner=SweepRunner(jobs=1))
        return builds, trees

    def test_a_second_run_builds_what_the_first_did(self, monkeypatch):
        builds, trees = self.counted_builds(monkeypatch, runs=2)
        first, second = builds
        # Four cells: one ACL, one FIB and one NFCompass tuple-space
        # table fill each.
        for run in (first, second):
            assert {kind: len(made) for kind, made in run.items()} == \
                {"acl": 4, "fib": 4, "tuple_space": 4}
        for kind in first:
            assert not ({id(table) for table in first[kind]}
                        & {id(table) for table in second[kind]}), kind
        # The FastClick and NBA firewalls of every cell fill none.
        for run in trees:
            assert len(run) == 8
            assert all(tables == {} for tables in run)


class TestEachFlowIsClassifiedOnce:
    """A deploy's candidates share their NFs' elements, and the clone
    each candidate profiles shares its firewall matcher's verdict memo:
    each distinct 5-tuple of the sample is classified from scratch at
    most once per matcher, and the second candidate's pass is answered
    from the memo the first one filled."""

    @staticmethod
    def counted(monkeypatch):
        """Every (memo, 5-tuple) classified from scratch and every
        (memo, 5-tuple) matched, in order.  The lists keep each memo
        alive, so their ids stay distinct."""
        classify = TupleSpaceMatcher._classify
        match = TupleSpaceMatcher.match
        scratch, matched = [], []

        def counting_classify(self, *fields):
            scratch.append((self._verdicts, fields))
            return classify(self, *fields)

        def counting_match(self, packet):
            matched.append((self._verdicts, packet_fields(packet)))
            return match(self, packet)

        monkeypatch.setattr(TupleSpaceMatcher, "_classify",
                            counting_classify)
        monkeypatch.setattr(TupleSpaceMatcher, "match", counting_match)
        return scratch, matched

    @staticmethod
    def assert_each_flow_once(scratch, matched, packets):
        """One memo took ``packets`` matches from two passes, and
        classified each distinct 5-tuple it met exactly once."""
        assert len({id(memo) for memo, _fields in matched}) == 1
        assert len(matched) == packets
        flows = Counter(fields for _memo, fields in scratch)
        assert set(flows.values()) == {1}
        assert set(flows) == {fields for _memo, fields in matched}
        # The second pass repeats the first's flows: none is new.
        first_pass = {fields for _memo, fields in matched[:packets // 2]}
        assert set(flows) == first_pass
        return len(flows)

    def test_five_nf_deploy(self, monkeypatch):
        scratch, matched = self.counted(monkeypatch)
        plan = NFCompass().deploy(five_nf_chain(), five_nf_spec(0),
                                  batch_size=BATCH)
        classified = self.assert_each_flow_once(scratch, matched, 512)
        assert classified < 256
        # The memo the clones classified into is the deployed
        # firewall's own.
        memos = [plan.graph.element(node).matcher._verdicts
                 for node in plan.graph.nodes
                 if isinstance(plan.graph.element(node), AclClassify)]
        assert len(memos) == 1
        assert matched[0][0] is memos[0]
        assert len(memos[0]) == classified

    def test_fig17_cell(self, monkeypatch):
        """The benchmark's cell: only NFCompass's firewall is
        profiled, once per candidate."""
        scratch, matched = self.counted(monkeypatch)
        run_sweep(fig17.cell_sweep_spec((10000,), (64,)))
        assert self.assert_each_flow_once(scratch, matched, 512) < 256


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
