"""Experiment harnesses: one module per paper table/figure.

Each module exposes ``run(quick=True)`` returning structured result
rows and a ``main()`` that prints the table the paper reports.  The
benchmarks under ``benchmarks/`` call these harnesses; EXPERIMENTS.md
records paper-versus-measured for each.

============================  ==========================================
Module                        Paper artifact
============================  ==========================================
``fig05_batch_split``         Fig. 5 — batch-split throughput collapse
``fig06_offload_ratio``       Fig. 6 — throughput vs offload fraction
``fig07_sfc_length``          Fig. 7 — acceleration offset by SFC length
``fig08_characterization``    Fig. 8 — batch size/traffic/co-run study
``fig14_reorganization``      Figs. 13/14 — SFC parallelization + synthesis
``fig15_gta``                 Fig. 15 — graph task allocation vs baselines
``fig17_real_sfc``            Figs. 16/17 — real SFC (FW/router/NAT) study
``tables``                    Tables II/III — NF actions & criteria
``load_latency``              Extension — latency vs load, bursts, overload
``ablations``                 Extension — design-choice ablations
============================  ==========================================
"""

from repro.experiments import common

__all__ = ["common"]
