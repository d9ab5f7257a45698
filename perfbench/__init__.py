"""Benchmark for sgis: seeded, verified workloads timed end to end, with an
optional traced run that attributes the work layer by layer.

Run one workload with `python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>` from the repository root; see README.md beside
this file for the other modes.
"""
