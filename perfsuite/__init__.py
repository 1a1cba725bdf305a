"""End-to-end and per-layer benchmark of the Doppelgänger simulator.

Run one workload with ``python3 perfsuite/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root; see
``perfsuite/README.md``.
"""
