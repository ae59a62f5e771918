"""Unit tests for runtime traffic profiling."""

import pytest

from repro.core.profiler import node_traffic_shares
from repro.elements.graph import ElementGraph
from repro.elements.standard import Counter, FromDevice, HashSwitch, \
    ToDevice
from repro.sim.engine import BranchProfile


class TestTrafficShares:
    def _branchy_graph(self):
        graph = ElementGraph(name="branchy")
        rx = graph.add(FromDevice(name="rx"))
        switch = graph.add(HashSwitch(fanout=2, name="hs"))
        a = graph.add(Counter(name="a"))
        b = graph.add(Counter(name="b"))
        tx = graph.add(ToDevice(name="tx"))
        graph.connect(rx, switch)
        graph.connect(switch, a, src_port=0)
        graph.connect(switch, b, src_port=1)
        graph.connect(a, tx)
        graph.connect(b, tx)
        return graph

    def test_source_share_is_one(self):
        graph = self._branchy_graph()
        shares = node_traffic_shares(graph, BranchProfile())
        assert shares["rx"] == pytest.approx(1.0)

    def test_branch_shares_sum_to_parent(self):
        graph = self._branchy_graph()
        shares = node_traffic_shares(graph, BranchProfile())
        assert shares["a"] + shares["b"] == pytest.approx(shares["hs"])

    def test_join_accumulates(self):
        graph = self._branchy_graph()
        shares = node_traffic_shares(graph, BranchProfile())
        assert shares["tx"] == pytest.approx(1.0)

    def test_drops_reduce_downstream_share(self):
        graph = self._branchy_graph()
        profile = BranchProfile(drop_fractions={"hs": 0.5})
        shares = node_traffic_shares(graph, profile)
        assert shares["tx"] == pytest.approx(0.5)

    def test_measured_fractions_used(self):
        graph = self._branchy_graph()
        profile = BranchProfile(port_fractions={"hs": {0: 0.75, 1: 0.25}})
        shares = node_traffic_shares(graph, profile)
        assert shares["a"] == pytest.approx(0.75)
        assert shares["b"] == pytest.approx(0.25)
