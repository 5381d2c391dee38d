"""Ablation: bulk data copying (paper section 3.2).

Paper: copying arrays of atomic types with ``memcpy`` instead of
component-by-component "can reduce character string processing times by
60-70%".

Toggled flag: ``memcpy_arrays``.  Workloads: string-heavy directory
entries (the paper's string case) and integer arrays (batched packs).
"""

import pytest

from repro import OptFlags, api
from repro.workloads import BENCH_IDL_ONC, make_dir_entries, make_int_array

from benchmarks.harness import fmt, measure_marshal, print_table


def run(budget=0.05):
    data = {}
    for label, flags in (
        ("on", OptFlags()),
        ("off", OptFlags().but(memcpy_arrays=False)),
    ):
        module = api.compile(BENCH_IDL_ONC, "oncrpc", flags=flags).module
        data[("dirents", label)], _size = measure_marshal(
            module, "dirents",
            (make_dir_entries(module, 65536, record_prefix=""),),
            budget=budget,
        )
        data[("ints", label)], _size = measure_marshal(
            module, "ints", (make_int_array(65536),), budget=budget
        )
    rows = []
    for workload in ("dirents", "ints"):
        on, off = data[(workload, "on")], data[(workload, "off")]
        rows.append([
            workload, fmt(on), fmt(off),
            "%.0f%%" % (100 * (1 - off / on)),
        ])
    return rows, data


class TestMemcpyAblation:
    def test_bulk_copy_wins_big(self, benchmark):
        rows, data = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table(
            "Ablation (sec. 3.2): bulk copy vs element-at-a-time;"
            " marshal MB/s at 64KB",
            ("workload", "memcpy on", "memcpy off", "time saved"),
            rows,
        )
        # Paper: 60-70% of string processing time saved; string-heavy
        # dirents must save at least half.
        saved = 1 - data[("dirents", "off")] / data[("dirents", "on")]
        assert saved > 0.5, saved
        # Integer arrays benefit even more from array-wide packs.
        assert data[("ints", "on")] > 2 * data[("ints", "off")]
