"""Determinism and cache soundness of the burstiness sweep.

The new arrival-process paths must uphold the runner's two promises:

- **parallel == serial**: the ``load_latency`` burstiness sweep
  (stochastic arrival schedules inside each point) produces exactly
  the same dataclass rows — float-equal — under ``jobs`` 1, 2 and 4,
  because every process is seeded by value, never by worker state;
  so does the module's load sweep;
- **fingerprint soundness**: an arrival process's cache identity
  covers every parameter, so changed burst knobs can never alias a
  cached result, while a structurally equal rebuild hits the cache.
"""

from repro.experiments import load_latency
from repro.runner import (
    SweepRunner,
    canonical_fingerprint,
    canonical_form,
    run_sweep,
)
from repro.traffic.arrivals import (
    MMPP,
    ConstantRate,
    DiurnalRamp,
    Poisson,
)
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

BURST = load_latency.burstiness_sweep_spec(
    quick=True, nf_types=("firewall",),
    modes=("constant", "poisson", "onoff"))
LOAD = load_latency.latency_sweep_spec(quick=True, nf_types=("firewall",),
                                       fractions=(0.5, 1.0))

#: ``canonical_fingerprint`` of the ``BURST`` rows, recorded
#: while a capacity sweep still set every point's load.
BURST_ROWS = \
    "c732ff98bd6a88fa46a9ca6865daa0d495389cbaf99f2699f6d28be9f3a7aa67"


class TestBurstinessSweepDeterminism:
    def test_parallel_equals_serial(self):
        serial = run_sweep(BURST)
        parallel = SweepRunner(jobs=2).run(BURST)
        assert serial == parallel
        assert canonical_fingerprint(serial) == BURST_ROWS
        # The load sweep, one point per system, holds it too.
        assert run_sweep(LOAD) == SweepRunner(jobs=2).run(LOAD)

    def test_worker_count_irrelevant(self):
        assert SweepRunner(jobs=2).run(BURST) == \
            SweepRunner(jobs=4).run(BURST)

    def test_row_order_is_grid_order(self):
        rows = SweepRunner(jobs=4).run(BURST)
        assert [r.mode for r in rows] == ["constant", "poisson",
                                          "onoff"]


def spec_with(process):
    return TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                       seed=3, arrivals=process)


class TestArrivalFingerprints:
    def test_equal_rebuild_equal_fingerprint(self):
        for process, rebuilt in [
            (ConstantRate(), ConstantRate()),
            (Poisson(seed=5), Poisson(seed=5)),
            (MMPP(burst_factor=3.0, duty_cycle=0.2, seed=9),
             MMPP(burst_factor=3.0, duty_cycle=0.2, seed=9)),
            (DiurnalRamp(trough_ratio=0.5), DiurnalRamp(trough_ratio=0.5)),
        ]:
            assert canonical_fingerprint(spec_with(process)) == \
                canonical_fingerprint(spec_with(rebuilt)), process

    def test_changed_params_change_fingerprint(self):
        base = canonical_fingerprint(
            spec_with(MMPP(burst_factor=4.0, duty_cycle=0.25, seed=1)))
        for variant in [
            MMPP(burst_factor=4.5, duty_cycle=0.2, seed=1),
            MMPP(burst_factor=4.0, duty_cycle=0.2, seed=1),
            MMPP(burst_factor=4.0, duty_cycle=0.25, seed=2),
            MMPP(burst_factor=4.0, duty_cycle=0.25, cycle_batches=80.0,
                 seed=1),
            Poisson(seed=1),
            ConstantRate(),
            None,
        ]:
            assert canonical_fingerprint(spec_with(variant)) != base, \
                variant

    def test_process_classes_never_alias(self):
        prints = {canonical_fingerprint(spec_with(p))
                  for p in (ConstantRate(), Poisson(), MMPP(),
                            DiurnalRamp(), None)}
        assert len(prints) == 5

    def test_canonical_form_uses_fingerprint_hook(self):
        form = canonical_form(Poisson(seed=77))
        assert form["__custom__"] == "repro.traffic.arrivals.Poisson"
        assert form["value"] == {
            "__mapping__": [("arrival_process", "Poisson"),
                            ("params", {"__mapping__": [("seed", 77)]})],
        }
