"""Ablation: parameter storage management (paper section 3.1).

Paper: unmarshaled data can live "within the marshal buffer itself ...
especially important when the encoded and target language data formats of
an object are identical", valid for ``in`` parameters because servants may
not keep references after returning.  The reproduction presents large
received byte arrays as zero-copy views into the receive buffer.

Toggled flag: ``zero_copy_server``.  Workload: opaque blobs.
"""

import pytest

from repro import OptFlags, api

from benchmarks.harness import fmt, measure_unmarshal, print_table

IDL = """
typedef opaque blob<>;
program STORE {
  version SV {
    void put(blob) = 1;
  } = 1;
} = 0x20000055;
"""


def run(budget=0.05):
    data = {}
    for label, flags in (
        ("view", OptFlags(zero_copy_server=True)),
        ("copy", OptFlags()),
    ):
        module = api.compile(IDL, "oncrpc", flags=flags).module
        for size in (1024, 65536, 1048576):
            payload = bytes(size)
            mbps, _m = measure_unmarshal(
                module, "put", (payload,), body_offset=40, budget=budget,
                as_view=(label == "view"),
            )
            data[(label, size)] = mbps
    rows = []
    for size in (1024, 65536, 1048576):
        view, copy = data[("view", size)], data[("copy", size)]
        rows.append([str(size), fmt(view), fmt(copy),
                     "%.0f%%" % (100 * (view / copy - 1))])
    return rows, data


class TestParameterStorageAblation:
    def test_buffer_reuse_helps_large_data(self, benchmark):
        rows, data = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table(
            "Ablation (sec. 3.1): unmarshaled data in the receive buffer"
            " (view) vs copied out; blob unmarshal MB/s",
            ("bytes", "view", "copy", "speedup"),
            rows,
        )
        # The paper: reuse of marshal buffer space matters most when the
        # amount of data is large.
        assert data[("view", 1048576)] > data[("copy", 1048576)]
        large_gain = data[("view", 1048576)] / data[("copy", 1048576)]
        small_gain = data[("view", 1024)] / data[("copy", 1024)]
        assert large_gain > small_gain
