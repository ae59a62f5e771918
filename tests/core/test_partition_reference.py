"""Kernighan–Lin against its frozen oracle, ``partition_reference``.

The product KL prices one member of each class of interchangeable
nodes per group at every step and judges only the greedy trials its
incremental bound keeps; the oracle prices every move and judges every
trial from scratch.  They must agree on every group, float bit, pass
and counter.
"""

import random

import pytest
from builders import assert_kl_matches, twin_partition_graph

from repro.core import allocator, partition
from repro.core.compass import NFCompass
from repro.core.partition import HOST_GROUP, PartitionGraph
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import NF_CATALOG, make_nf
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

FIVE_NF = ("firewall", "ids", "nat", "ipsec", "dpi")

#: Two groups (the paper's default), one GPU, the host alone, and
#: host + GPU + SmartNIC.
PLATFORMS = {
    "two-gpus": PlatformSpec(),
    "one-gpu": PlatformSpec(gpus=1),
    "host-only": PlatformSpec(gpus=0),
    "smartnic": PlatformSpec().with_smartnic(),
}


def deploy_graphs(platform, chain, spec, batch_size=64):
    """Every (graph, capacities, link_costs) the allocator partitions
    with KL while ``NFCompass`` deploys ``chain``."""
    captured = []
    partition_kl = allocator.kernighan_lin_partition

    def recording(graph, capacities, link_costs=None, trace=None):
        captured.append((graph, dict(capacities), link_costs))
        return partition_kl(graph, capacities, link_costs, trace=trace)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(allocator, "kernighan_lin_partition", recording)
        NFCompass(platform=platform).deploy(
            ServiceFunctionChain([make_nf(kind) for kind in chain]), spec,
            batch_size=batch_size)
    return captured


@pytest.fixture(scope="module")
def deploy_corpus():
    """Partition graphs of seeded random catalog chains, three deploys
    per platform."""
    rng = random.Random(33)
    kinds = sorted(NF_CATALOG)
    corpus = []
    for index in range(12):
        name = list(PLATFORMS)[index % len(PLATFORMS)]
        chain = [rng.choice(kinds) for _ in range(rng.randint(1, 5))]
        spec = TrafficSpec(size_law=FixedSize(rng.choice([64, 256, 1500])),
                           offered_gbps=40.0, seed=index)
        corpus += [(name, *case) for case in deploy_graphs(
            PLATFORMS[name], chain, spec,
            batch_size=rng.choice([32, 64]))]
    return corpus


@pytest.fixture(scope="module")
def five_nf_graphs():
    return deploy_graphs(PlatformSpec(), FIVE_NF, TrafficSpec(
        size_law=FixedSize(256), offered_gbps=40.0, seed=0))


class TestDeployCorpus:
    def test_matches_the_oracle(self, deploy_corpus):
        group_counts = set()
        for _name, graph, capacities, link_costs in deploy_corpus:
            got = assert_kl_matches(graph, capacities, link_costs)
            group_counts.add(len(got["groups"]))
        assert group_counts == {1, 2, 3}
        assert {name for name, *_ in deploy_corpus} == set(PLATFORMS)

    def test_five_nf_graphs_match_the_oracle(self, five_nf_graphs):
        assert [len(graph.nodes) for graph, _, _ in five_nf_graphs] \
            == [48, 52]
        for graph, capacities, link_costs in five_nf_graphs:
            assert_kl_matches(graph, capacities, link_costs)


def bundle_graph(elements, node_order):
    """Pinned ``rx`` -> element bundles in a chain -> pinned ``tx``.

    ``elements`` maps an element to (slice count, group times of one
    slice); consecutive elements' slices are all joined, as
    ``expand_graph`` joins them, and nodes enter in ``node_order``
    (a function of the slice ids).
    """
    bundles = [["rx"]] + [
        [f"{element}#s{i}" for i in range(count)]
        for element, (count, _times) in elements.items()] + [["tx"]]
    graph = PartitionGraph()
    for node in node_order([n for bundle in bundles for n in bundle]):
        element = node.split("#")[0]
        if element in elements:
            times = dict(elements[element][1])
            graph.add_node(node, cpu_time=times[HOST_GROUP], pinned=None,
                           group=element, group_times=times)
        else:
            graph.add_node(node, cpu_time=0.5, pinned="cpu", group=node,
                           group_times={HOST_GROUP: 0.5})
    for left, right in zip(bundles, bundles[1:]):
        for u in left:
            for v in right:
                graph.add_edge(u, v, weight=0.1 / (len(left) * len(right)))
    return graph


def interleaved(nodes):
    """Every element's slice 0 first, then every slice 1, ...; the
    pinned ends last."""
    return sorted(nodes, key=lambda node: node.rpartition("#s")[2])


class TestHandBuiltTwins:
    def test_twins_apart_in_node_order(self):
        graph = bundle_graph({
            "a": (4, {HOST_GROUP: 8.0, "gpu": 1.0}),
            "b": (4, {HOST_GROUP: 5.0, "gpu": 4.0}),
        }, interleaved)
        order = list(graph.nodes)
        assert order.index("a#s1") - order.index("a#s0") > 1
        assert_kl_matches(graph, {HOST_GROUP: 2, "gpu": 1})

    def test_twins_in_different_groups(self):
        """Half of ``a`` balances onto the GPU: its slices sit in two
        groups from the greedy start on."""
        graph = bundle_graph({"a": (6, {HOST_GROUP: 3.0, "gpu": 3.0})},
                             list)
        got = assert_kl_matches(graph, {HOST_GROUP: 1, "gpu": 1})
        slices = {f"a#s{i}" for i in range(6)}
        assert slices & got["groups"]["gpu"]
        assert slices & got["groups"][HOST_GROUP]

    def test_twins_across_three_groups(self):
        graph = bundle_graph({
            "a": (5, {HOST_GROUP: 4.0, "gpu": 1.0, "smartnic": 1.5}),
            "b": (3, {HOST_GROUP: 2.0, "smartnic": 0.5}),
        }, interleaved)
        got = assert_kl_matches(graph, {HOST_GROUP: 1, "gpu": 1,
                                        "smartnic": 1},
                                {"gpu": 1.0, "smartnic": 1.5})
        homes = {group for group, nodes in got["groups"].items()
                 if any(node.startswith("a#") for node in nodes)}
        assert len(homes) > 1

    def test_near_twins_stay_apart(self):
        """A weight one ulp off makes two slices different classes."""
        graph = bundle_graph({"a": (4, {HOST_GROUP: 3.0, "gpu": 2.0})},
                             list)
        weight = graph["a#s3"]["tx"]["weight"]
        graph["a#s3"]["tx"]["weight"] = weight + weight * 2.0 ** -52
        assert_kl_matches(graph, {HOST_GROUP: 1, "gpu": 1})

    @pytest.mark.parametrize("groups", [1, 2, 3])
    def test_planted_twins(self, groups):
        rng = random.Random(groups)
        for _ in range(40):
            graph = twin_partition_graph(rng, smartnic=groups == 3)
            capacities = {HOST_GROUP: rng.randint(1, 4)}
            link_costs = None
            if groups >= 2:
                capacities["gpu"] = rng.randint(1, 2)
            if groups == 3:
                capacities["smartnic"] = 1
                link_costs = {"gpu": 1.0, "smartnic": rng.uniform(0.5, 2.0)}
            assert_kl_matches(graph, capacities, link_costs)


class TestEvaluationCounts:
    """On the 5-NF deploy's graphs: 40 slices in 4 classes, two
    groups."""

    @pytest.fixture
    def log(self, monkeypatch):
        """Every incremental state made, move priced and made, and
        from-scratch evaluation, in call order."""
        events = []
        state_type = partition._Incremental
        init = state_type.__init__
        price = state_type.objective_after
        move = state_type.move
        evaluate = partition._Tables.evaluate

        def logged_init(self, tables, assignment):
            init(self, tables, assignment)
            events.append(("state", self))

        def logged_price(self, node, target):
            outcome = price(self, node, target)
            events.append(("price", self, outcome[0]))
            return outcome

        def logged_move(self, node, target, d_cut):
            events.append(("move", self))
            move(self, node, target, d_cut)

        def logged_evaluate(self, node_group):
            outcome = evaluate(self, node_group)
            events.append(("evaluate", outcome[0]))
            return outcome

        monkeypatch.setattr(state_type, "__init__", logged_init)
        monkeypatch.setattr(state_type, "objective_after", logged_price)
        monkeypatch.setattr(state_type, "move", logged_move)
        monkeypatch.setattr(partition._Tables, "evaluate", logged_evaluate)
        return events

    @staticmethod
    def run(graph, capacities, link_costs, events):
        events.clear()
        partition.kernighan_lin_partition(graph, capacities, link_costs)
        greedy = events[0][1].working
        split = next(index for index, event in enumerate(events)
                     if event[0] == "state" and event[1].working
                     is not greedy)
        return events[:split], events[split:]

    def test_a_step_prices_one_move_per_class_and_group(
            self, five_nf_graphs, log):
        pairs = 4 * 2
        for graph, capacities, link_costs in five_nf_graphs:
            _greedy, passes = self.run(graph, capacities, link_costs, log)
            steps = [0]
            for event in passes:
                if event[0] == "price":
                    steps[-1] += 1
                elif event[0] in ("move", "state"):
                    steps.append(0)
            moves = sum(1 for event in passes if event[0] == "move")
            assert moves >= 40
            assert 0 < max(steps) <= pairs

    def test_the_greedy_judges_only_the_trials_it_keeps(
            self, five_nf_graphs, log):
        for graph, capacities, link_costs in five_nf_graphs:
            greedy, _passes = self.run(graph, capacities, link_costs, log)
            assert greedy[1][0] == "evaluate"
            best = greedy[1][1]
            kept = priced = 0
            for event, following in zip(greedy[2:], greedy[3:] + [None]):
                if event[0] == "evaluate":
                    best = min(best, event[1])
                    continue
                if event[0] != "price":
                    continue
                priced += 1
                bound = event[2]
                keep = bound - best <= partition._GREEDY_SLACK * (
                    abs(bound) + abs(best))
                judged = following is not None \
                    and following[0] == "evaluate"
                assert judged == keep
                kept += keep
            assert priced == 40
            assert 0 < kept < 10
