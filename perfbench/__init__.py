"""End-to-end and per-layer benchmark of the DC-MESH reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in a fresh, pinned interpreter and
prints its metrics; see ``perfbench/README.md``.
"""
