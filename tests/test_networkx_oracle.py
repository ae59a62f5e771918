"""networkx as the oracle of the stdlib graph code.

The runtime answers its DAG queries (topological order, cycle check,
depth, dominators, descendants, ancestors) and builds its partition
graph without networkx; networkx is a test dependency only.  These
tests check both against networkx and check that no runtime path
imports it.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from builders import FIVE_NF

import repro
from repro.core.orchestrator import SFCOrchestrator
from repro.core.partition import PartitionGraph
from repro.core.synthesizer import (
    _ROOT,
    _immediate_dominators,
    _predecessor_table,
    _reachable,
)
from repro.elements.graph import ElementGraph, GraphValidationError
from repro.elements.standard import Classifier, HashSwitch, ToDevice
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf

# ----------------------------------------------------------------------
# ElementGraph DAG queries and the synthesizer's dominators
# ----------------------------------------------------------------------


def random_graph(rng: random.Random, back_edges: int = 0) -> ElementGraph:
    """A random element graph over 3-output switches.

    Nodes are added in a random order unrelated to the edges, so there
    are several sources and some isolated nodes.  Each output port
    either stays open or feeds a later node; ports of one node often
    feed the same node (parallel edges), and all edges are connected
    in shuffled order, so parallel edges interleave with other
    out-edges.  ``back_edges`` edges then point at earlier nodes,
    which may close a cycle.
    """
    count = rng.randint(1, 12)
    rank = [f"n{index}" for index in range(count)]
    graph = ElementGraph(name="random")
    for node in rng.sample(rank, count):
        graph.add(HashSwitch(fanout=3, name=node))
    edges = []
    for position, node in enumerate(rank[:-1]):
        later = rank[position + 1:position + 3]
        for port in range(3):
            if rng.random() < 0.6:
                edges.append((node, rng.choice(later), port))
    rng.shuffle(edges)
    for src, dst, port in edges:
        graph.connect(src, dst, src_port=port)
    for _ in range(back_edges if count > 1 else 0):
        low, high = sorted(rng.sample(range(count), 2))
        src, dst = rank[high], rank[low]
        used = {e.src_port for e in graph.out_edges(src)}
        free = [port for port in range(3) if port not in used]
        if free:
            graph.connect(src, dst, src_port=free[0])
    return graph


def firewall_shaped() -> ElementGraph:
    """A firewall's ``classify -> tx`` port pair, with another
    out-edge connected between the two parallel edges.

    Counting in-degree per edge would release ``log`` before ``tx``;
    ``nx.DiGraph`` collapses the pair, so ``tx`` comes first.
    """
    graph = ElementGraph(name="firewall-shaped")
    graph.add(HashSwitch(fanout=1, name="rx"))
    graph.add(Classifier([lambda packet: True, lambda packet: False],
                         name="classify"))
    graph.add(ToDevice(name="tx"))
    graph.add(ToDevice(name="log"))
    graph.connect("rx", "classify")
    graph.connect("classify", "tx", src_port=0)
    graph.connect("classify", "log", src_port=1)
    graph.connect("classify", "tx", src_port=2)
    return graph


def five_nf_graph() -> ElementGraph:
    """The 5-NF deploy's parallelized graph: a Tee into a firewall
    and an IDS branch, rejoined at an XorMerge."""
    sfc = ServiceFunctionChain([make_nf(kind, name=f"{kind}#{index}")
                                for index, kind in enumerate(FIVE_NF)])
    return SFCOrchestrator().parallelize(sfc)[1]


def rooted(graph: ElementGraph) -> nx.DiGraph:
    """``graph`` in networkx with the synthesizer's virtual root above
    every source."""
    nxg = graph.to_networkx()
    nxg.add_node(_ROOT)
    for source in graph.sources():
        nxg.add_edge(_ROOT, source)
    return nxg


def assert_dag_queries_match(graph: ElementGraph) -> None:
    nxg = graph.to_networkx()
    order = graph.topological_order()
    assert order == list(nx.topological_sort(nxg))
    assert graph.validate() == order
    assert graph.depth() == (
        nx.dag_longest_path_length(nxg) + 1 if len(graph) else 0)
    successors = graph.successor_table()
    predecessors = _predecessor_table(successors)
    expected_idom = {node: parent for node, parent
                     in nx.immediate_dominators(rooted(graph), _ROOT).items()
                     if node != _ROOT}
    assert _immediate_dominators(order, predecessors) == expected_idom
    for node in graph.nodes:
        assert _reachable(successors, node) == nx.descendants(nxg, node)
        assert _reachable(predecessors, node) == nx.ancestors(nxg, node)


class TestDagQueries:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_dags(self, seed):
        assert_dag_queries_match(random_graph(random.Random(seed)))

    def test_pinned_graphs(self):
        graph = firewall_shaped()
        assert graph.topological_order() == ["rx", "classify", "tx", "log"]
        assert_dag_queries_match(graph)
        assert_dag_queries_match(five_nf_graph())

    def test_cycle_verdicts(self):
        verdicts = set()
        for seed in range(60):
            graph = random_graph(random.Random(seed), back_edges=2)
            acyclic = nx.is_directed_acyclic_graph(graph.to_networkx())
            verdicts.add(acyclic)
            if acyclic:
                assert_dag_queries_match(graph)
            else:
                with pytest.raises(GraphValidationError):
                    graph.topological_order()
        assert verdicts == {True, False}


# ----------------------------------------------------------------------
# The partition graph
# ----------------------------------------------------------------------


def drive(graph, seed: int):
    """Apply one seeded sequence of node, edge and edge-data updates.

    Every choice comes from the seed and local lists, never from the
    graph, so a ``PartitionGraph`` and an ``nx.Graph`` see the same
    sequence.
    """
    rng = random.Random(seed)
    names = [f"v{index}" for index in range(rng.randint(1, 10))]
    edges = []
    for _ in range(rng.randint(0, 40)):
        roll = rng.random()
        if roll < 0.3:
            graph.add_node(rng.choice(names), cpu_time=rng.random(),
                           pinned=rng.choice([None, "cpu"]))
        elif roll < 0.8:
            u, v = rng.choice(names), rng.choice(names)
            graph.add_edge(u, v, weight=rng.random())
            edges.append((u, v))
        elif edges:
            u, v = rng.choice(edges)
            if rng.random() < 0.5:
                u, v = v, u
            graph[u][v]["share"] = (graph[u][v].get("share", 0.0)
                                    + rng.random())
    return graph


class TestPartitionGraph:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_nx_graph(self, seed):
        ours = drive(PartitionGraph(), seed)
        theirs = drive(nx.Graph(), seed)
        assert list(ours.nodes) == list(theirs.nodes)
        assert list(ours.nodes(data=True)) == list(theirs.nodes(data=True))
        for node in theirs.nodes:
            assert ours.nodes[node] == theirs.nodes[node]
            assert list(ours[node].items()) == list(theirs[node].items())
            for other in theirs.nodes:
                assert ours.has_edge(node, other) \
                    == theirs.has_edge(node, other)
        assert list(ours.edges(data=True)) == list(theirs.edges(data=True))
        for u, v in ours.edges():
            assert ours[u][v] is ours[v][u]


# ----------------------------------------------------------------------
# The runtime never imports networkx
# ----------------------------------------------------------------------


def test_runtime_never_imports_networkx():
    script = (
        "import random, sys\n"
        "import repro\n"
        "from repro.core.compass import NFCompass\n"
        "from repro.nf.base import ServiceFunctionChain\n"
        "from repro.nf.catalog import make_nf\n"
        "from repro.traffic.generator import TrafficSpec\n"
        "sfc = ServiceFunctionChain([make_nf(k) for k in "
        f"{FIVE_NF!r}])\n"
        "NFCompass().run(sfc, TrafficSpec(seed=1), batch_size=16, "
        "batch_count=10)\n"
        "import repro.cli\n"
        "repro.cli.main(['deploy', '-c', 'firewall,ids', "
        "'--batches', '10'])\n"
        "import repro.validate\n"
        "from repro.validate import audit_partitioners, "
        "random_partition_graph\n"
        "audit = audit_partitioners(random_partition_graph("
        "random.Random(0), max_nodes=8))\n"
        "assert audit.ok, audit.summary()\n"
        "print('networkx' in sys.modules)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "False"
