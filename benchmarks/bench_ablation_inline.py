"""Ablation: marshal code inlining (paper section 3.3).

Paper: "stubs with inlined code can process complex data up to 60% faster
than stubs without this optimization" — and, crucially, "the memory,
parameter, and copy optimizations become more powerful as more code can
be inlined": out-of-line per-type marshal functions stop chunks at type
boundaries, so a Rect of two Coord substructures marshals as two 8-byte
packs behind three function calls instead of one 16-byte pack.

Toggled flag: ``inline_marshal``.  Workload: rectangle arrays (the nested
structures where cross-boundary chunking matters).
"""

import pytest

from repro import OptFlags, api
from repro.workloads import BENCH_IDL_ONC, make_dir_entries, make_rect_array

from benchmarks.harness import fmt, measure_marshal, print_table


def run(budget=0.05):
    data = {}
    modules = {}
    for label, flags in (
        ("on", OptFlags()),
        ("off", OptFlags().but(inline_marshal=False)),
    ):
        modules[label] = api.compile(
            BENCH_IDL_ONC, "oncrpc", flags=flags).module
        for size in (1024, 65536):
            args = (make_rect_array(modules[label], size,
                                    record_prefix=""),)
            data[("rects", label, size)], _m = measure_marshal(
                modules[label], "rects", args, budget=budget
            )
    # Directory entries: the 30-integer stat struct chunks fine even
    # inside its own out-of-line function, so the effect there is small —
    # measured for the record.
    for label in ("on", "off"):
        args = (make_dir_entries(modules[label], 65536, record_prefix=""),)
        data[("dirents", label, 65536)], _m = measure_marshal(
            modules[label], "dirents", args, budget=budget
        )
    rows = []
    for workload, size in (("rects", 1024), ("rects", 65536),
                           ("dirents", 65536)):
        on = data[(workload, "on", size)]
        off = data[(workload, "off", size)]
        rows.append([
            "%s/%d" % (workload, size), fmt(on), fmt(off),
            "%.0f%%" % (100 * (on / off - 1)),
        ])
    return rows, data


class TestInlineAblation:
    def test_inlining_enables_cross_boundary_chunking(self, benchmark):
        rows, data = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table(
            "Ablation (sec. 3.3): inlined vs out-of-line per-type marshal"
            " functions; marshal MB/s",
            ("workload/bytes", "inlined", "out-of-line", "speedup"),
            rows,
        )
        # Paper: up to 60% faster on complex data.  Nested structures
        # show the full effect; we require at least 30%.
        for size in (1024, 65536):
            on = data[("rects", "on", size)]
            off = data[("rects", "off", size)]
            assert on > 1.3 * off, (size, on, off)
