"""The repo's benchmark: six closed-loop workloads, end-to-end metrics
measured with tracing off, and a per-layer ledger from a separate traced
pass.  See README.md in this directory and BENCHMARK.json at the root.
"""
