"""The Zerber benchmark: seeded workloads, end-to-end metrics, per-layer trace.

Run one workload with ``python3 perfbench/run.py --workload cold-uniform
--seed 1 --seconds 12 --trace 0`` from the repository root; see
``perfbench/README.md``.
"""
