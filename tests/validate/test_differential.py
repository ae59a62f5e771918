"""Tier-1 tests for the golden-model differential validator."""

import pytest
from builders import make_traffic_spec

from repro.core.compass import NFCompass
from repro.core.orchestrator import SFCOrchestrator
from repro.net.packet import Packet
from repro.traffic.dpi_profiles import make_pattern_set
from repro.validate.differential import (
    ChainSpec,
    canonical,
    check_stateful_declaration,
    element_state,
    run_differential,
)


class TestChainSpec:
    def test_build_is_deterministic_and_independent(self):
        spec = ChainSpec(nf_types=("firewall", "nat"), name="c")
        first, second = spec.build(), spec.build()
        assert [nf.name for nf in first.nfs] \
            == [nf.name for nf in second.nfs] \
            == ["c.0.firewall", "c.1.nat"]
        assert first.nfs[0] is not second.nfs[0]
        assert set(first.concatenated_graph().nodes) \
            == set(second.concatenated_graph().nodes)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown NF"):
            ChainSpec(nf_types=("warpdrive",))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ChainSpec(nf_types=())


class TestCanonical:
    def test_dict_order_insensitive(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_packet_identity(self):
        packet = Packet(payload=b"xyz")
        clone = packet.clone()
        assert canonical(packet) == canonical(clone)
        clone.payload = b"XYZ"
        assert canonical(packet) != canonical(clone)


class TestStatefulDeclarations:
    @pytest.mark.parametrize("nf_type", ["nat", "stateful-ids", "wanopt"])
    def test_stateful_nfs_declared(self, nf_type):
        from repro.nf.catalog import make_nf
        nf = make_nf(nf_type)
        assert nf.stateful
        assert check_stateful_declaration(nf) is None

    def test_undeclared_stateful_nf_flagged(self):
        from repro.nf.catalog import make_nf
        nf = make_nf("nat")
        nf.stateful = False
        problem = check_stateful_declaration(nf)
        assert problem is not None and "stateful=True" in problem

    def test_element_state_ignores_counters(self):
        from repro.nf.catalog import make_nf
        nat_a, nat_b = make_nf("nat"), make_nf("nat")
        elements_a = nat_a.stateful_elements()
        elements_b = nat_b.stateful_elements()
        assert elements_a and len(elements_a) == len(elements_b)
        for left, right in zip(elements_a, elements_b):
            right.packets_processed = 999
            assert element_state(left) == element_state(right)


class TestRunDifferential:
    def test_mixed_chain_equivalent(self):
        report = run_differential(
            ChainSpec(nf_types=("firewall", "ids", "nat"), name="t"),
            packet_count=64,
        )
        assert report.ok, report.summary()
        assert report.effective_length < report.sequential_length

    def test_stateful_chain_equivalent(self):
        report = run_differential(
            ChainSpec(nf_types=("probe", "stateful-ids", "nat"),
                      name="t"),
            traffic_spec=make_traffic_spec(protocol="tcp",
                                           flow_count=16),
            packet_count=64,
        )
        assert report.ok, report.summary()

    def test_without_partition(self):
        report = run_differential(
            ChainSpec(nf_types=("firewall", "lb"), name="t"),
            packet_count=32, with_partition=False,
        )
        assert report.ok, report.summary()

    @pytest.mark.parametrize("packet_count", [0, -5])
    def test_an_empty_trace_rejected(self, packet_count):
        """An empty trace compares nothing; it used to report
        EQUIVALENT."""
        with pytest.raises(ValueError, match="packet_count must be at "
                                             "least 1"):
            run_differential(ChainSpec(nf_types=("firewall", "lb"),
                                       name="t"),
                             packet_count=packet_count,
                             with_partition=False)

    def test_unsafe_reorder_detected(self):
        """Injected hazard-rule violation: parallelize an IDS (dropper)
        with a downstream NAT (stateful).  NAT port allocation diverges
        from the sequential order, and the oracle must report it."""
        pattern = make_pattern_set()[0]

        def payload(rng, size):
            body = bytes(rng.randrange(256) for _ in range(size))
            if rng.random() < 0.4:
                body = pattern + body[len(pattern):]
            return body

        spec = make_traffic_spec(packet_size=256, seed=5,
                                 flow_count=64, payload_maker=payload)
        compass = NFCompass()
        compass.orchestrator = SFCOrchestrator(
            independence_override=lambda former, later: True
        )
        report = run_differential(
            ChainSpec(nf_types=("ids", "nat"), name="inject"),
            traffic_spec=spec, packet_count=128, compass=compass,
        )
        assert not report.ok
        assert report.effective_length == 1
        assert any(d.field in ("bytes", "verdict")
                   for d in report.packet_diffs) or report.state_diffs

    def test_honest_calculus_serializes_drop_before_stateful(self):
        """Same traffic, real Table III calculus: the STATE_AFTER_DROP
        hazard keeps ids -> nat sequential and the run equivalent."""
        pattern = make_pattern_set()[0]

        def payload(rng, size):
            body = bytes(rng.randrange(256) for _ in range(size))
            if rng.random() < 0.4:
                body = pattern + body[len(pattern):]
            return body

        spec = make_traffic_spec(packet_size=256, seed=5,
                                 flow_count=64, payload_maker=payload)
        report = run_differential(
            ChainSpec(nf_types=("ids", "nat"), name="honest"),
            traffic_spec=spec, packet_count=128,
        )
        assert report.ok, report.summary()
        assert report.effective_length == 2
