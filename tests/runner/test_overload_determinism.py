"""Determinism and cache soundness of the overload sweep.

Overload protection adds stateful machinery (drop ledgers, admission
accumulators, breaker state) inside each sweep point; the runner's
promises must survive it:

- **parallel == serial**: the ``load_latency`` overload sweep produces
  float-equal rows under ``jobs`` 1, 2 and 4, because every point
  builds its own deployment and controllers from scalar knobs — no
  cross-point state;
- **fingerprint soundness**: a point's cache identity covers every
  overload knob (queue limit, drop policy, SLO, admission mode, load
  multiples), so
  changing any of them can never alias a cached result.
"""

from repro.experiments import load_latency
from repro.runner import SweepRunner, canonical_fingerprint

OVERLOAD_KWARGS = dict(quick=True, nf_types=("firewall",),
                       modes=("constant", "onoff"),
                       multiples=(0.8, 2.0))

#: ``canonical_fingerprint`` of the ``OVERLOAD_KWARGS`` rows, recorded
#: while a capacity sweep still set every point's load.
OVERLOAD_ROWS = \
    "43fc08b381635434d33aae3afd424f2eb3e2d41e7b56ebd49523a6c66d3c8686"


class TestOverloadSweepDeterminism:
    def test_parallel_equals_serial(self):
        serial = load_latency.run_overload(**OVERLOAD_KWARGS)
        parallel = load_latency.run_overload(runner=SweepRunner(jobs=2),
                                             **OVERLOAD_KWARGS)
        assert serial == parallel
        assert canonical_fingerprint(serial) == OVERLOAD_ROWS

    def test_worker_count_irrelevant(self):
        assert load_latency.run_overload(
            runner=SweepRunner(jobs=2), **OVERLOAD_KWARGS) == \
            load_latency.run_overload(runner=SweepRunner(jobs=4),
                                      **OVERLOAD_KWARGS)

    def test_row_order_is_grid_order(self):
        rows = load_latency.run_overload(runner=SweepRunner(jobs=4),
                                         **OVERLOAD_KWARGS)
        assert [(r.mode, r.load_multiple) for r in rows] == [
            ("constant", 0.8), ("constant", 2.0),
            ("onoff", 0.8), ("onoff", 2.0),
        ]

    def test_degradation_is_graceful(self):
        """Past saturation the sweep sheds load instead of diverging:
        drops appear and the p99 of admitted traffic meets the SLO."""
        rows = load_latency.run_overload(**OVERLOAD_KWARGS)
        saturated = [r for r in rows if r.load_multiple == 2.0]
        assert saturated
        for row in saturated:
            assert row.drop_rate > 0.0
            assert row.latency_p99_ms <= 2.0
            assert row.conserved


def overload_fingerprints(**overrides):
    kwargs = dict(quick=True, nf_types=("firewall",),
                  modes=("constant",), multiples=(2.0,))
    kwargs.update(overrides)
    spec = load_latency.overload_sweep_spec(**kwargs)
    return [spec.fingerprint(i) for i in range(len(spec.grid))]


class TestOverloadFingerprints:
    def test_rebuild_is_stable(self):
        assert overload_fingerprints() == overload_fingerprints()

    def test_every_knob_changes_the_fingerprint(self):
        base = overload_fingerprints()[0]
        for overrides in [
            {"queue_limit": 8},
            {"drop_policy": "head"},
            {"drop_policy": "deadline"},
            {"drop_policy": "deadline:1.5"},
            {"slo_ms": 5.0},
            {"admission": "token"},
            {"admission": "slo"},
            {"multiples": (1.6,)},
        ]:
            assert overload_fingerprints(**overrides)[0] != base, \
                overrides

    def test_modes_never_alias(self):
        prints = overload_fingerprints(
            modes=("constant", "poisson", "onoff", "diurnal"))
        assert len(set(prints)) == 4
