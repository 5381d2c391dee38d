"""Ablation: message demultiplexing (paper section 3.3).

Paper: the server dispatch function decodes discriminators in machine-word
chunks through a ``switch`` (hashed lookup here) with unmarshal code
inlined into the dispatch path, instead of comparing operation identifiers
one by one.

Toggled flag: ``hash_demux``.  Workload: a 48-operation interface, timing
dispatch of the *last* operation (the linear chain's worst case, a string
comparison per miss under IIOP).
"""

import time

import pytest

from repro import OptFlags, api
from repro.encoding import MarshalBuffer

from benchmarks.harness import fmt, print_table

OPERATIONS = 96

IDL = "interface Wide {\n%s\n};" % "\n".join(
    "  void op_%02d(in long x);" % index for index in range(OPERATIONS)
)


def measure_dispatch(module, operation, budget=0.05):
    request = MarshalBuffer()
    getattr(module, "_m_req_%s" % operation)(request, 1, 7)
    data = request.getvalue()

    class _Impl:
        def __getattr__(self, _name):
            return lambda *args: None

    impl = _Impl()
    reply = MarshalBuffer()
    module.dispatch(data, impl, reply)
    iterations = 0
    clock = time.perf_counter
    start = clock()
    while True:
        reply.reset()
        module.dispatch(data, impl, reply)
        iterations += 1
        if clock() - start >= budget:
            break
    return iterations / (clock() - start)


def run(budget=0.05):
    data = {}
    for label, flags in (
        ("hash", OptFlags()),
        ("linear", OptFlags(hash_demux=False)),
    ):
        module = api.compile(IDL, "corba", backend="iiop", flags=flags).module
        data[(label, "first")] = measure_dispatch(
            module, "op_00", budget
        )
        data[(label, "last")] = measure_dispatch(
            module, "op_%02d" % (OPERATIONS - 1), budget
        )
    rows = [
        [position, fmt(data[("hash", position)] / 1000),
         fmt(data[("linear", position)] / 1000)]
        for position in ("first", "last")
    ]
    return rows, data


class TestDemuxAblation:
    def test_hashed_demux_beats_linear_scan(self, benchmark):
        rows, data = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table(
            "Ablation (sec. 3.3): hashed vs linear demux;"
            " dispatches/ms, %d-operation interface" % OPERATIONS,
            ("operation", "hash", "linear"),
            rows,
        )
        # The last operation pays the full linear scan.
        assert data[("hash", "last")] > 1.1 * data[("linear", "last")]
        # Hashing is position-independent; linear degrades with position.
        hash_spread = (
            data[("hash", "first")] / data[("hash", "last")]
        )
        linear_spread = (
            data[("linear", "first")] / data[("linear", "last")]
        )
        assert linear_spread > hash_spread
