"""perfbench: the benchmark every speed claim about this repository is measured with.

Four seeded workloads, a fixed set of end-to-end metrics with regression
bounds, and a per-layer table from one span-traced repeat per workload.
The harness drives the program through its public API only and changes
nothing under ``src/``; see ``perfbench/README.md`` for the glossary and
the rules of use.
"""
