"""Unit tests for the graph task allocator (GTA)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.hw import DEFAULT_HOST_DEVICE
from repro.core.allocator import GraphTaskAllocator
from repro.core.partition import HOST_GROUP, evaluate_assignment
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.traffic.distributions import FixedSize, IMIXSize
from repro.traffic.generator import TrafficSpec

FIVE_NF = ("firewall", "ids", "nat", "ipsec", "dpi")


@pytest.fixture
def spec():
    return TrafficSpec(size_law=IMIXSize(), offered_gbps=40.0, seed=3)


def allocate(nf_types, spec, **kwargs):
    allocator = GraphTaskAllocator(platform=PlatformSpec(), **kwargs)
    graph = ServiceFunctionChain(
        [make_nf(t) for t in nf_types]
    ).concatenated_graph()
    mapping, report = allocator.allocate(graph, spec)
    return graph, mapping, report


class TestAllocation:
    def test_mapping_is_valid(self, spec):
        graph, mapping, _report = allocate(["ipsec"], spec)
        mapping.validate_against(graph)

    def test_ipsec_offloaded(self, spec):
        _graph, _mapping, report = allocate(["ipsec"], spec)
        assert any(r > 0 for r in report.offload_ratios.values())

    def test_ipv4_stays_on_cpu(self, spec):
        """The Fig. 15 IPv4 result: GTA does not offload at all."""
        _graph, _mapping, report = allocate(["ipv4"], spec)
        assert all(r == 0 for r in report.offload_ratios.values())

    def test_stateful_elements_never_offloaded(self, spec):
        graph, _mapping, report = allocate(["nat", "ipsec"], spec)
        for node, ratio in report.offload_ratios.items():
            if graph.element(node).is_stateful:
                assert ratio == 0.0

    def test_ratios_quantized_by_delta(self, spec):
        _graph, _mapping, report = allocate(["ipsec"], spec, delta=0.25)
        for ratio in report.offload_ratios.values():
            assert ratio * 4 == pytest.approx(round(ratio * 4))

    def test_cpu_cores_load_balanced(self, spec):
        _graph, _mapping, report = allocate(
            ["ipsec", "ids"], spec,
            cpu_cores=[DEFAULT_HOST_DEVICE, "cpu1", "cpu2"],
        )
        loads = sorted(report.cpu_core_loads.values())
        assert len(loads) == 3
        # LPT keeps the heaviest core within ~2x of the mean.
        if loads[-1] > 0:
            mean = sum(loads) / len(loads)
            assert loads[-1] <= 2.5 * mean + 1e-9

    def test_agglomerative_algorithm_runs(self, spec):
        graph, mapping, report = allocate(["ipsec"], spec,
                                          algorithm="agglomerative")
        mapping.validate_against(graph)
        assert report.partition.algorithm == "agglomerative"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            GraphTaskAllocator(algorithm="simulated-annealing")

    def test_report_summary(self, spec):
        _graph, _mapping, report = allocate(["ipsec"], spec)
        assert "GTA" in report.summary()

    def test_node_shares_reflect_topology(self, spec):
        graph, _mapping, report = allocate(["firewall"], spec)
        source = graph.sources()[0]
        assert report.node_shares[source] == pytest.approx(1.0)


class TestHostOnly:
    """No healthy offload device: the partition has the host group
    only, through the same partition and lowering path."""

    @pytest.mark.parametrize("nf_types", [("ipsec",), FIVE_NF])
    def test_objective_is_the_all_host_objective(self, nf_types):
        spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                           seed=0)
        graph, mapping, report = allocate(list(nf_types), spec, gpus=[])
        pgraph = report.expanded.pgraph
        objective, cut, loads = evaluate_assignment(
            pgraph, {HOST_GROUP: set(pgraph.nodes)},
            capacities={HOST_GROUP: len(report.cpu_core_loads)})
        partition = report.partition
        assert partition.objective == objective
        assert partition.cut_weight == cut == 0.0
        assert partition.groups == {HOST_GROUP: set(pgraph.nodes)}
        assert partition.group_load == loads
        # The heaviest element bounds the objective from below, not
        # its heaviest delta-slice.
        heaviest = max(
            sum(pgraph.nodes[s]["cpu_time"]
                for s in report.expanded.slices_per_node[node])
            for node in graph.nodes)
        assert partition.objective >= heaviest
        assert all(r == 0.0 for r in report.offload_ratios.values())
        assert all(type(r) is float
                   for r in report.offload_ratios.values())
        assert all(not shares
                   for shares in report.device_shares.values())
        used = mapping.processors_used()
        assert all(device.startswith("cpu") for device in used)


def test_partition_floats_do_not_depend_on_the_hash_seed():
    """The reported loads are summed in graph order, never over a set,
    so two interpreters with different string hashing agree on every
    bit of the partition's floats."""
    script = (
        "from repro.core.compass import NFCompass\n"
        "from repro.nf.base import ServiceFunctionChain\n"
        "from repro.nf.catalog import make_nf\n"
        "from repro.traffic.distributions import FixedSize\n"
        "from repro.traffic.generator import TrafficSpec\n"
        f"sfc = ServiceFunctionChain([make_nf(k) for k in {FIVE_NF!r}])\n"
        "plan = NFCompass().deploy(sfc, TrafficSpec(\n"
        "    size_law=FixedSize(256), offered_gbps=40.0, seed=0))\n"
        "p = plan.partition\n"
        "print(p.cpu_load.hex(), p.gpu_load.hex(), p.objective.hex(),\n"
        "      p.cut_weight.hex())\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True,
                                check=True)
        outputs.append(result.stdout.split())
    assert len(outputs[0]) == 4
    assert outputs[0] == outputs[1]
