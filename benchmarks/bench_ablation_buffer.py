"""Ablation: marshal buffer management (paper section 3.1).

Paper: one free-space check per message region (sized by the storage-class
analysis) instead of one per atomic datum "reduces marshaling times by up
to 12% for large messages containing complex structures".

Toggled flag: ``batch_buffer_checks``.  Workload: directory entries (the
paper's complex-structure case), plus one rectangle-array row: with the
flag on a fixed-layout array is a single message region (one reserve, one
array-wide pack), with it off it is the per-element loop, so the row
records the on/off ratio of the region form.
"""

import pytest

from repro import Flick, OptFlags
from repro.workloads import (
    BENCH_IDL_ONC,
    make_dir_entries,
    make_rect_array,
)

from benchmarks.harness import fmt, measure_marshal, print_table


#: Payload of the rectangle-array row.
RECTS_BYTES = 65536


def run(budget=0.05):
    rows = []
    data = {}
    for label, flags in (
        ("on", OptFlags()),
        ("off", OptFlags().disable_pass("batch_buffer_checks")),
    ):
        module = Flick(
            frontend="oncrpc", flags=flags
        ).compile(BENCH_IDL_ONC).load_module()
        for size in (4096, 65536, 262144):
            args = (make_dir_entries(module, size, record_prefix=""),)
            mbps, _message = measure_marshal(
                module, "dirents", args, budget=budget
            )
            data[(label, size)] = mbps
        args = (make_rect_array(module, RECTS_BYTES, record_prefix=""),)
        data[(label, "rects")], _message = measure_marshal(
            module, "rects", args, budget=budget
        )
    for size in (4096, 65536, 262144, "rects"):
        on, off = data[("on", size)], data[("off", size)]
        name = "rects %d" % RECTS_BYTES if size == "rects" else str(size)
        rows.append([name, fmt(on), fmt(off),
                     "%.1f%%" % (100 * (on - off) / on)])
    return rows, data


class TestBufferManagementAblation:
    def test_batched_checks_help(self, benchmark):
        rows, data = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table(
            "Ablation (sec. 3.1): one buffer check per region vs per"
            " datum; dirents marshal MB/s",
            ("bytes", "batched", "per-datum", "reduction"),
            rows,
        )
        # Paper: up to 12% marshal-time reduction.  Per-datum checks cost
        # relatively more in Python, so the effect is at least as large.
        for size in (65536, 262144, "rects"):
            assert data[("on", size)] > data[("off", size)], size
