"""Experiment harnesses regenerating every table and figure of the paper.

Each module reproduces one piece of the evaluation (Section V):

========================  =====================================================
Module                    Paper content
========================  =====================================================
``table1_config``         Table I — architecture and system configuration
``fig4_model``            Fig. 4 — empirical latency modelling of host-gb/pim-gb
``fig5_area``             Fig. 5 — PIM chip area breakdown
``table2_summary``        Table II — per-query selectivity and subgroup counts
``fig6_latency``          Fig. 6 — SSB execution latency, all five configurations
``fig7_energy``           Fig. 7 — PIM memory energy per query
``fig8_power``            Fig. 8 — peak power of a single PIM chip
``fig9_endurance``        Fig. 9 — required cell endurance over ten years
``headline``              The abstract's geo-mean speedup / energy / lifetime
``ablation``              Ablations beyond the figures (see its docstring)
========================  =====================================================

All experiments execute the benchmark functionally on a laptop-sized SSB
instance and report costs extrapolated to the paper's SF=10 relation size
(see ``ExperimentSetup.timing_scale``); the ``render`` functions print the
measured values next to the paper's where the paper states one, and
``headline`` collects the abstract's ratios.
"""

from repro.experiments.common import ExperimentSetup, QueryRecord, build_setup, run_all_queries

__all__ = ["ExperimentSetup", "QueryRecord", "build_setup", "run_all_queries"]
