"""The seeded chaos grid, pinned.

CI diffs ``repro chaos`` run serially against ``--jobs 2``; a change
that moved both alike would pass that diff.  This pin fixes the rows.
"""

from repro.faults import chaos
from repro.runner import SweepRunner, canonical_fingerprint

#: ``canonical_fingerprint`` of the quick grid's rows: three chains x
#: four fault seeds.
QUICK_ROWS = \
    "80198966dbf324d00f4f5bd48d09cdac5d7c8a4defb6aff5e6019af1f0d21b79"


def test_quick_grid_rows_unchanged():
    rows = chaos.run(quick=True, runner=SweepRunner(jobs=1))
    assert len(rows) == 12
    assert all(row.conserved for row in rows)
    assert canonical_fingerprint(rows) == QUICK_ROWS
