"""End-to-end and per-layer benchmark of tmclust.

Run it from the repository root:

    python3 perfbench/run.py --workload fit-7x4 --seed 0 --seconds 25 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the gates.
"""
