"""Ablation: message demultiplexing (paper section 3.3).

Paper: the server dispatch function decodes discriminators in machine-word
chunks through a ``switch`` (hashed lookup here) with unmarshal code
inlined into the dispatch path, instead of comparing operation identifiers
one by one.

Toggled flag: ``hash_demux``.  Workload: a 96-operation interface,
dispatching its first and its *last* operation (the linear chain's worst
case, a string comparison per miss under IIOP).  What is asserted is a
count that does not depend on the host: the ``COMPARE_OP`` instructions
``dispatch``'s own frame executes for one request.  Hashed, that is the
header walk's own comparisons, the same for either operation; linear, it
grows by one per operation ahead in the chain.  The dispatch rates are
printed beside it.
"""

import dis
import sys
import time

import pytest

from repro import OptFlags, api
from repro.backend.iiop import IiopBackEnd
from repro.encoding import MarshalBuffer

from benchmarks.harness import fmt, print_table

OPERATIONS = 96

IDL = "interface Wide {\n%s\n};" % "\n".join(
    "  void op_%02d(in long x);" % index for index in range(OPERATIONS)
)


class _Impl:
    def __getattr__(self, _name):
        return lambda *args: None


def _request(module, operation):
    request = MarshalBuffer()
    getattr(module, "_m_req_%s" % operation)(request, 1, 7)
    return request.getvalue()


def count_compares(module, operation):
    """``COMPARE_OP`` instructions ``dispatch``'s own frame executes
    serving one request of *operation* (after a first, uncounted one:
    the section load and the first calls are not demultiplexing)."""
    data, impl, reply = _request(module, operation), _Impl(), MarshalBuffer()
    module.dispatch(data, impl, reply)
    code = module.dispatch.__code__
    compare = dis.opmap["COMPARE_OP"]
    count = 0

    def opcodes(frame, event, _arg):
        nonlocal count
        if event == "opcode" and frame.f_code.co_code[frame.f_lasti] \
                == compare:
            count += 1
        return opcodes

    def calls(frame, _event, _arg):
        if frame.f_code is not code:
            return None
        frame.f_trace_opcodes = True
        return opcodes

    reply.reset()
    sys.settrace(calls)
    try:
        module.dispatch(data, impl, reply)
    finally:
        sys.settrace(None)
    return count


def measure_dispatch(module, operation, budget=0.05):
    data, impl, reply = _request(module, operation), _Impl(), MarshalBuffer()
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


POSITIONS = {"first": "op_00", "last": "op_%02d" % (OPERATIONS - 1)}


def run(budget=0.05):
    """``(rows, rates, compares)``: dispatches per second and
    ``COMPARE_OP`` counts, keyed ``(demux, position)``."""
    rates, compares = {}, {}
    for label, flags in (
        ("hash", OptFlags()),
        ("linear", OptFlags(hash_demux=False)),
    ):
        module = api.compile(IDL, "corba", backend="iiop", flags=flags).module
        for position, operation in POSITIONS.items():
            compares[label, position] = count_compares(module, operation)
            rates[label, position] = measure_dispatch(
                module, operation, budget)
    rows = [
        [position, fmt(rates["hash", position] / 1000),
         fmt(rates["linear", position] / 1000),
         compares["hash", position], compares["linear", position]]
        for position in POSITIONS
    ]
    return rows, rates, compares


def assert_position_independent(compares):
    """Hashed: the last operation costs the first one's comparisons,
    and those are the header walk's few."""
    assert compares["first"] == compares["last"], compares
    assert compares["last"] < 16, compares


class TestDemuxAblation:
    def test_hashed_demux_beats_linear_scan(self, benchmark):
        rows, _rates, compares = benchmark.pedantic(
            run, rounds=1, iterations=1)
        print_table(
            "Ablation (sec. 3.3): hashed vs linear demux;"
            " dispatches/ms and COMPARE_OPs in dispatch,"
            " %d-operation interface" % OPERATIONS,
            ("operation", "hash", "linear", "hash cmp", "linear cmp"),
            rows,
        )
        assert_position_independent(
            {position: compares["hash", position] for position in POSITIONS})
        # Linear: one comparison per operation tried, the header walk's
        # beside them; the last operation tries all of them.
        assert compares["linear", "first"] == compares["hash", "first"] + 1
        assert compares["linear", "last"] \
            == compares["hash", "last"] + OPERATIONS

    def test_a_planted_linear_chain_fails_the_count(self, monkeypatch):
        """A dispatch that scans a chain while its flags say
        ``hash_demux`` is caught by the count."""
        emit = IiopBackEnd._emit_dispatch
        monkeypatch.setattr(
            IiopBackEnd, "_emit_dispatch",
            lambda self, w, presc, flags: emit(
                self, w, presc, flags.but(hash_demux=False)))
        result = api.compile(IDL, "corba", backend="iiop")
        assert result.stubs.flags.hash_demux
        compares = {position: count_compares(result.module, operation)
                    for position, operation in POSITIONS.items()}
        with pytest.raises(AssertionError):
            assert_position_independent(compares)
