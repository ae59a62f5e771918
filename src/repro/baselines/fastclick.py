"""FastClick baseline model.

FastClick [Barbette et al., ANCS'15] is a fast userspace CPU packet
processor: batched Click with DPDK I/O, no accelerator offloading and
no cross-NF graph optimization.  In our substrate that means the
naive concatenated processing tree mapped over CPU cores — each NF
keeps its own I/O elements and its own classification tree, so the
per-packet classification cost grows with the ACL size (the Fig. 17
collapse at 1 000/10 000 rules).
"""

from __future__ import annotations

from repro.baselines.policies import CPUOnlyBaseline


class FastClickBaseline(CPUOnlyBaseline):
    """Batched CPU-only Click.

    Structurally identical to :class:`CPUOnlyBaseline`; the class
    exists so experiments and reports carry the right system name.
    Fig. 17 gives it firewalls of the ``"tree"`` matcher kind, priced
    as the classification trees the real system builds.
    """

    name = "fastclick"
