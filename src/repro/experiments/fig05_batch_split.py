"""Fig. 5 — batch re-organization caused by branching.

The paper runs a chain of *branch test elements* and compares
throughput with and without batch splitting: splitting at every branch
collapses throughput from 36.5 Gbps to 15.8 Gbps (a 2.3x drop) and
re-organization overheads dominate the time breakdown.

Our branch test stage is a flow-hash classifier feeding two per-port
worker elements that re-join downstream; the *without split* variant
is the same pipeline with a single-path classifier (no batch
re-organization).  Both variants do the same per-packet work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.elements.graph import ElementGraph
from repro.elements.standard import (
    Classifier,
    Counter,
    FromDevice,
    HashSwitch,
    ToDevice,
)
from repro.experiments import common
from repro.sim.engine import SimulationEngine
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec


@dataclass
class Fig5Row:
    """One measured configuration."""

    variant: str
    stages: int
    throughput_gbps: float
    reorganization_fraction: float
    split_ops: float


def build_branch_chain(stages: int, with_split: bool) -> ElementGraph:
    """A chain of branch-test stages."""
    graph = ElementGraph(
        name=f"branch-chain-{'split' if with_split else 'nosplit'}x{stages}"
    )
    previous = graph.add(FromDevice(name="rx"))
    for stage in range(stages):
        if with_split:
            switch = graph.add(
                HashSwitch(fanout=2, name=f"s{stage}/branch")
            )
            worker_a = graph.add(Counter(name=f"s{stage}/workerA"))
            worker_b = graph.add(Counter(name=f"s{stage}/workerB"))
            join = graph.add(
                Classifier(rules=[], name=f"s{stage}/join")
            )
            graph.connect(previous, switch)
            graph.connect(switch, worker_a, src_port=0)
            graph.connect(switch, worker_b, src_port=1)
            graph.connect(worker_a, join)
            graph.connect(worker_b, join)
            previous = join
        else:
            switch = graph.add(
                Classifier(rules=[], name=f"s{stage}/branch")
            )
            worker = graph.add(Counter(name=f"s{stage}/worker"))
            graph.connect(previous, switch)
            graph.connect(switch, worker)
            previous = worker
    tx = graph.add(ToDevice(name="tx"))
    graph.connect(previous, tx)
    graph.validate()
    return graph


def _traffic() -> TrafficSpec:
    return TrafficSpec(size_law=FixedSize(64), offered_gbps=40.0)


def _measure_point(stages: int, with_split: bool, batch_size: int,
                   batch_count: int) -> List[Fig5Row]:
    """One sweep point: measure one (stages, variant) configuration."""
    from repro.sim.mapping import Deployment

    engine = SimulationEngine()
    graph = build_branch_chain(stages, with_split)
    mapping = common.dedicated_core_mapping(graph)
    deployment = Deployment(
        graph, mapping,
        name="with_split" if with_split else "without_split",
    )
    report = engine.session(deployment).run(
        common.saturated(_traffic()),
        batch_size=batch_size, batch_count=batch_count,
    )
    return [Fig5Row(
        variant=deployment.name,
        stages=stages,
        throughput_gbps=report.throughput_gbps,
        reorganization_fraction=report.overheads.reorganization_fraction,
        split_ops=report.overheads.batch_split,
    )]


def sweep_spec(quick: bool = True,
               stage_counts: Sequence[int] = (4,)) -> common.SweepSpec:
    """The Fig. 5 parameter grid as a runnable sweep."""
    return common.SweepSpec(
        name="fig05.batch_split",
        point=_measure_point,
        grid=[{"stages": stages, "with_split": with_split}
              for stages in stage_counts
              for with_split in (False, True)],
        params={"batch_size": common.BATCH_SIZE,
                "batch_count": 60 if quick else 200},
    )


def main(quick: bool = True, runner=None) -> str:
    """Render the Fig. 5 table plus the no-split/split ratio notes."""
    rows = common.run_sweep(sweep_spec(quick, stage_counts=(1, 2, 4, 6)),
                            runner)
    table = common.format_table(
        ["variant", "stages", "Gbps", "reorg fraction"],
        [[r.variant, r.stages, r.throughput_gbps,
          r.reorganization_fraction] for r in rows],
        title="Fig. 5 — throughput with and without batch splitting",
    )
    by_stage = {}
    for row in rows:
        by_stage.setdefault(row.stages, {})[row.variant] = row
    notes = []
    for stages, pair in sorted(by_stage.items()):
        if {"with_split", "without_split"} <= set(pair):
            ratio = (pair["without_split"].throughput_gbps
                     / max(1e-9, pair["with_split"].throughput_gbps))
            notes.append(f"stages={stages}: no-split/split ratio "
                         f"{ratio:.2f}x (paper: 36.5/15.8 = 2.31x at "
                         "its configuration)")
    return table + "\n" + "\n".join(notes)


if __name__ == "__main__":
    print(main(quick=False))
