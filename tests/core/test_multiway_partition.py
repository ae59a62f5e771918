"""Unit tests for multiway (N-device-group) partitioning."""

import random

import networkx as nx
import pytest
from builders import offload_friendly_graph, weighted_graph, with_group_times

from repro.core.partition import (
    HOST_GROUP,
    agglomerative_partition,
    evaluate_assignment,
    kernighan_lin_partition,
)
from repro.obs import Trace
from repro.runner import canonical_fingerprint
from repro.validate.fuzz import random_partition_graph


def three_device_graph():
    """Two offloadables that prefer *different* devices, pinned ends.

    ``a`` is cheap on the GPU and unsupported on the NIC; ``b`` is
    cheap on the NIC and mediocre on the GPU — an optimal three-group
    assignment splits them.
    """
    graph = weighted_graph(
        {
            "rx": (0.5, float("inf"), "cpu"),
            "a": (50.0, 2.0, None),
            "b": (40.0, 30.0, None),
            "tx": (0.5, float("inf"), "cpu"),
        },
        [("rx", "a", 0.2), ("a", "b", 0.2), ("b", "tx", 0.2)],
    )
    graph.nodes["a"]["group_times"] = {
        HOST_GROUP: 50.0, "gpu": 2.0,
    }
    graph.nodes["b"]["group_times"] = {
        HOST_GROUP: 40.0, "gpu": 30.0, "smartnic": 1.5,
    }
    return graph


#: The host, a GPU and a SmartNIC, one unit each.
GROUPS3 = {HOST_GROUP: 1, "gpu": 1, "smartnic": 1}


class TestEvaluateAssignment:
    def test_binary_case_matches_evaluate(self):
        from repro.core.partition import evaluate
        graph = offload_friendly_graph()
        gpu_nodes = {"heavy"}
        objective, cut, cpu_load, gpu_load = evaluate(
            graph, gpu_nodes, cpu_cores=4)
        assignment = {HOST_GROUP: {"rx", "tx"}, "gpu": gpu_nodes}
        m_objective, m_cut, loads = evaluate_assignment(
            graph, assignment, capacities={HOST_GROUP: 4, "gpu": 1})
        assert m_objective == pytest.approx(objective)
        assert m_cut == pytest.approx(cut)
        assert loads[HOST_GROUP] == pytest.approx(cpu_load)
        assert loads["gpu"] == pytest.approx(gpu_load)

    def test_link_costs_scale_cut(self):
        graph = three_device_graph()
        assignment = {HOST_GROUP: {"rx", "b", "tx"}, "gpu": {"a"},
                      "smartnic": set()}
        _, cut_base, _ = evaluate_assignment(graph, assignment)
        _, cut_slow, _ = evaluate_assignment(
            graph, assignment, link_costs={"gpu": 3.0})
        assert cut_slow == pytest.approx(3.0 * cut_base)

    def test_host_endpoints_never_charged(self):
        graph = nx.Graph()
        graph.add_node("u", group_times={HOST_GROUP: 1.0})
        graph.add_node("v", group_times={HOST_GROUP: 1.0, "gpu": 1.0})
        graph.add_edge("u", "v", weight=2.0)
        _, cut, _ = evaluate_assignment(
            graph, {HOST_GROUP: {"u"}, "gpu": {"v"}},
            link_costs={"gpu": 1.0})
        # Only the gpu endpoint pays; the host side is free.
        assert cut == pytest.approx(2.0)


class TestMultiwayKL:
    def test_two_group_view_matches_groups(self):
        result = kernighan_lin_partition(
            offload_friendly_graph(), {HOST_GROUP: 4, "gpu": 1})
        assert result.groups == {HOST_GROUP: result.cpu_nodes,
                                 "gpu": result.gpu_nodes}
        assert result.group_load == {HOST_GROUP: result.cpu_load,
                                     "gpu": result.gpu_load}
        assert result.gpu_nodes == {"heavy"}

    def test_host_only_when_no_offload_group(self):
        """No offload group: every node stays on the host, and the
        objective is the host bottleneck (heaviest element)."""
        graph = offload_friendly_graph()
        result = kernighan_lin_partition(graph, {HOST_GROUP: 4})
        assert result.groups == {HOST_GROUP: set(graph.nodes)}
        assert result.gpu_nodes == set()
        assert result.gpu_load == 0.0
        assert result.objective == 100.0

    def test_splits_across_three_groups(self):
        result = kernighan_lin_partition(three_device_graph(), GROUPS3)
        assert result.group_of("a") == "gpu"
        assert result.group_of("b") == "smartnic"
        assert result.group_of("rx") == HOST_GROUP

    def test_unsupported_group_never_assigned(self):
        # "a" has no smartnic entry in group_times -> infinite there.
        result = kernighan_lin_partition(three_device_graph(), GROUPS3)
        assert "a" not in result.groups["smartnic"]

    def test_pinned_nodes_stay_on_host(self):
        result = kernighan_lin_partition(three_device_graph(), GROUPS3)
        assert {"rx", "tx"} <= result.groups[HOST_GROUP]

    def test_partition_is_total(self):
        graph = three_device_graph()
        result = kernighan_lin_partition(graph, GROUPS3)
        assigned = set()
        for nodes in result.groups.values():
            assert not (assigned & nodes)
            assigned |= nodes
        assert assigned == set(graph.nodes)

    def test_group_load_consistent(self):
        result = kernighan_lin_partition(three_device_graph(), GROUPS3)
        assert result.cpu_load == pytest.approx(
            result.group_load[HOST_GROUP])
        offload = sum(load for group, load in result.group_load.items()
                      if group != HOST_GROUP)
        assert result.gpu_load == pytest.approx(offload)

    def test_empty_graph(self):
        result = kernighan_lin_partition(nx.Graph(), GROUPS3)
        assert result.groups == {g: set() for g in GROUPS3}


#: ``canonical_fingerprint`` of ``kernighan_lin_partition`` over the
#: 201 graphs of ``kl_cases``, recorded before KL kept per-group
#: top-two element sums: node groups, objective and cut bits, group
#: loads, passes, and the moves applied over all of them.
KL_RESULTS = \
    "93497cb904405d6f25df15aeaa833c6b78727b8c6289a0f5f209b5be1240720d"


def kl_cases(count=201, seed=19):
    """Random task graphs under 1-, 2- and 3-group capacities.

    The three-group graphs get ``group_times`` with a SmartNIC entry
    on some offloadable nodes, a GPU entry on most, and their own
    SmartNIC link factor.
    """
    rng = random.Random(seed)
    for index in range(count):
        graph = random_partition_graph(rng, max_nodes=24)
        capacities = {HOST_GROUP: rng.randint(1, 4)}
        link_costs = None
        if index % 3 >= 1:
            capacities["gpu"] = rng.randint(1, 2)
        if index % 3 == 2:
            capacities["smartnic"] = 1
            link_costs = {"gpu": 1.0, "smartnic": rng.uniform(0.5, 2.0)}
            with_group_times(rng, graph, smartnic=True)
        yield graph, capacities, link_costs


class TestRecordedKL:
    def test_results_are_pinned(self):
        trace = Trace("kl")
        rows = []
        for graph, capacities, link_costs in kl_cases():
            result = kernighan_lin_partition(graph, capacities, link_costs,
                                             trace=trace)
            rows.append({
                "groups": {group: sorted(nodes)
                           for group, nodes in result.groups.items()},
                "objective": result.objective.hex(),
                "cut": result.cut_weight.hex(),
                "loads": {group: load.hex()
                          for group, load in result.group_load.items()},
                "passes": result.passes,
            })
        moves = trace.metrics.snapshot()["counters"]["partition.kl.moves"]
        assert {len(row["groups"]) for row in rows} == {1, 2, 3}
        assert canonical_fingerprint({"rows": rows, "moves": moves}) \
            == KL_RESULTS


class TestMultiwayAgglomerative:
    def test_host_only_when_no_offload_group(self):
        graph = offload_friendly_graph()
        result = agglomerative_partition(graph, {HOST_GROUP: 4})
        assert result.groups == {HOST_GROUP: set(graph.nodes)}
        assert result.objective == 100.0

    def test_splits_across_three_groups(self):
        result = agglomerative_partition(
            three_device_graph(), GROUPS3)
        assert result.group_of("a") == "gpu"
        assert result.group_of("b") == "smartnic"

    def test_partition_is_total(self):
        graph = three_device_graph()
        result = agglomerative_partition(graph, GROUPS3)
        assigned = set()
        for nodes in result.groups.values():
            assigned |= nodes
        assert assigned == set(graph.nodes)

    def test_several_stragglers(self):
        """Offloadables wired only to pinned nodes join no seed
        cluster; each is placed while the others are still pending."""
        graph = three_device_graph()
        graph.add_node("c", group_times={HOST_GROUP: 30.0, "gpu": 3.0})
        graph.add_node("d", group_times={
            HOST_GROUP: 1.0, "gpu": 20.0, "smartnic": 10.0,
        })
        for node in ("c", "d"):
            graph.add_edge("rx", node, weight=0.2)
            graph.add_edge(node, "tx", weight=0.2)
        result = agglomerative_partition(graph, GROUPS3)
        assert result.groups == {
            HOST_GROUP: {"rx", "d", "tx"},
            "gpu": {"a", "c"},
            "smartnic": {"b"},
        }


class TestGroupOf:
    def test_unknown_node_raises_structured_keyerror(self):
        result = kernighan_lin_partition(three_device_graph(), GROUPS3)
        with pytest.raises(KeyError) as excinfo:
            result.group_of("ghost")
        message = str(excinfo.value)
        assert "ghost" in message
        for group in GROUPS3:
            assert group in message

    def test_binary_result_side_of_still_works(self):
        result = kernighan_lin_partition(offload_friendly_graph(),
                                         {HOST_GROUP: 4, "gpu": 1})
        assert result.group_of("heavy") in (HOST_GROUP, "gpu")
        with pytest.raises(KeyError):
            result.group_of("ghost")
