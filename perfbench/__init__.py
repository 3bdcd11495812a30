"""The repository benchmark: seeded workloads, output checks and spans.

Run it as ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see README.md.
"""
