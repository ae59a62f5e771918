"""Sharded parallel experiment runner with result caching.

The slowest path in the repo is reproducing the full figure set: every
paper experiment is a parameter sweep of independent simulation
points.  This package runs those sweeps on a process pool and
memoizes every point by content fingerprint:

- :class:`SweepSpec` — a named parameter grid plus the module-level
  point function that measures one point;
- :class:`SweepRunner` — deterministic sharding, worker-pool
  execution, grid-order merge; ``jobs=1`` runs the identical code
  path inline, so parallel output is byte-identical to serial;
- :class:`ResultCache` — content-addressed (SHA-256 of the canonical
  chain/platform/traffic/engine-version encoding) result store,
  in-memory plus optional on-disk;
- :func:`deployment_fingerprint` / :func:`canonical_fingerprint` —
  the hashing primitives.

Typical use (every :mod:`repro.experiments` harness does this via
``run(..., runner=runner)``)::

    from repro.runner import SweepRunner, ResultCache
    from repro.experiments import fig08_characterization as fig08

    runner = SweepRunner(jobs=8, cache=ResultCache(".repro-cache"))
    rows = runner.run(fig08.sweep_spec(quick=True))

``repro experiments run NAME --jobs 8`` exposes the same machinery on
the command line (``--no-cache`` / ``--cache-dir`` control the cache).
"""

from repro.runner.cache import CACHE_FORMAT_VERSION, ResultCache
from repro.runner.fingerprint import (
    ENGINE_VERSION,
    FingerprintError,
    canonical_fingerprint,
    canonical_form,
    deployment_fingerprint,
)
from repro.runner.runner import (
    SHARDS_PER_JOB,
    SweepRunner,
    run_sweep,
    shard_indices,
)
from repro.runner.spec import SweepSpec, encode_rows

__all__ = [
    "CACHE_FORMAT_VERSION",
    "ENGINE_VERSION",
    "FingerprintError",
    "ResultCache",
    "SHARDS_PER_JOB",
    "SweepRunner",
    "SweepSpec",
    "canonical_fingerprint",
    "canonical_form",
    "deployment_fingerprint",
    "encode_rows",
    "run_sweep",
    "shard_indices",
]
