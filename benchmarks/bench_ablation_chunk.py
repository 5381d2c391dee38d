"""Ablation: chunk analysis (paper section 3.2).

Paper: addressing fixed-layout message regions through a chunk pointer at
constant offsets — here, coalescing a region into a single multi-field
``struct.pack_into`` — "can reduce some data marshaling times by 14%".

Toggled flag: ``chunk_atoms``.  Workload: rectangle arrays, whose 16-byte
elements are the paper's fixed-layout case.  With the flag on the whole
array is one message region (``PutArrayRegion``: one reserve, one
array-wide pack); with it off every atom packs on its own, so these rows
are also the on/off ratio of the region form.  The last row is the decode
direction (``GetArrayRegion`` against the per-atom element loop).
"""

import pytest

from repro import OptFlags, api
from repro.workloads import BENCH_IDL_ONC, make_rect_array

from benchmarks.harness import (
    fmt,
    measure_marshal,
    measure_unmarshal,
    print_table,
)

#: ONC call header: where the request body starts.
BODY_OFFSET = 40


def run(budget=0.05):
    data = {}
    for label, flags in (
        ("on", OptFlags()),
        ("off", OptFlags().but(chunk_atoms=False)),
    ):
        module = api.compile(BENCH_IDL_ONC, "oncrpc", flags=flags).module
        for size in (1024, 65536):
            args = (make_rect_array(module, size, record_prefix=""),)
            data[(label, size)], _m = measure_marshal(
                module, "rects", args, budget=budget
            )
        data[(label, "decode")], _m = measure_unmarshal(
            module, "rects", args, BODY_OFFSET, budget=budget
        )
    rows = []
    for size in (1024, 65536, "decode"):
        on, off = data[("on", size)], data[("off", size)]
        name = "65536 decode" if size == "decode" else str(size)
        rows.append([name, fmt(on), fmt(off),
                     "%.0f%%" % (100 * (1 - off / on))])
    return rows, data


class TestChunkAblation:
    def test_chunking_helps_fixed_layouts(self, benchmark):
        rows, data = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table(
            "Ablation (sec. 3.2): chunked vs per-atom packs; rect arrays"
            " MB/s",
            ("bytes", "chunked", "per-atom", "time saved"),
            rows,
        )
        # Paper: ~14% reduction; the per-atom penalty is larger in
        # Python, so require at least the paper's effect.
        for size in (1024, 65536, "decode"):
            saved = 1 - data[("off", size)] / data[("on", size)]
            assert saved > 0.14, (size, saved)
