"""Sharded parallel experiment runner.

The slowest path in the repo is reproducing the full figure set: every
paper experiment is a parameter sweep of independent simulation
points.  This package runs those sweeps on a process pool:

- :class:`SweepSpec` — a named parameter grid plus the module-level
  point function that measures one point;
- :class:`SweepRunner` — deterministic sharding, worker-pool
  execution, grid-order merge; ``jobs=1`` runs the identical code
  path inline, so parallel output is byte-identical to serial;
- :func:`canonical_fingerprint` — the SHA-256 of an object's canonical
  encoding, which every recorded row digest pins.

Every run computes every point it returns.  Typical use (every
:mod:`repro.experiments` harness's ``main(quick, runner)`` does this
with its own specs)::

    from repro.runner import SweepRunner
    from repro.experiments import fig08_characterization as fig08

    rows = SweepRunner(jobs=8).run(fig08.batch_sweep_spec(quick=True))

``repro experiments run NAME --jobs 8`` exposes the same machinery on
the command line.
"""

from repro.runner.fingerprint import (
    FingerprintError,
    canonical_fingerprint,
    canonical_form,
)
from repro.runner.runner import (
    SHARDS_PER_JOB,
    SweepRunner,
    run_sweep,
    shard_indices,
)
from repro.runner.spec import SweepSpec

__all__ = [
    "FingerprintError",
    "SHARDS_PER_JOB",
    "SweepRunner",
    "SweepSpec",
    "canonical_fingerprint",
    "canonical_form",
    "run_sweep",
    "shard_indices",
]
