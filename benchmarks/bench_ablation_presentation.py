"""Ablation: presentation coercion (paper section 2.2 and refs [8, 9]).

The paper motivates flexible presentations with ``Mail_send(obj, msg,
len)``: "This presentation of the Mail interface could enable
optimizations because Mail_send would no longer need to count the number
of characters in the message"; the authors' earlier annotation work [8,9]
reported up to an order of magnitude from such presentation coercions.

This bench compares the standard CORBA C presentation (stubs count and
encode every string) with the ``corba-c-len`` variant (the application
hands over encoded bytes) on a string-heavy interface.  The wire bytes
are identical; only the programmer's contract differs.

What is asserted is the property, as a count of the Python and C calls
one encode makes (``call`` and ``c_call`` profile events, the terms of
``scripts/call_counts.py``): the ``corba-c-len`` encoder of ``append``
makes no ``str.encode`` call, and fewer calls than the ``corba-c`` one.
The marshal MB/s table is printed beside it, not asserted: single
50 ms windows are too short to hold a speedup on a loaded host.
"""

import sys
from collections import Counter

from repro import api
from repro.encoding import MarshalBuffer

from benchmarks.harness import fmt, measure_marshal, print_table

LOG_IDL = """
interface Log {
    oneway void append(in string line);
};
"""

SIZES = (64, 4096, 262144)


def run(budget=0.05):
    data = {}
    modules = {}
    for style in ("corba-c", "corba-c-len"):
        modules[style] = api.compile(
            LOG_IDL, "corba", presentation=style, backend="iiop").module
    for size in SIZES:
        text = "x" * size
        encoded = text.encode("latin-1")
        data[("corba-c", size)], _m = measure_marshal(
            modules["corba-c"], "append", (text,), budget=budget
        )
        data[("corba-c-len", size)], _m = measure_marshal(
            modules["corba-c-len"], "append", (encoded,), budget=budget
        )
    rows = []
    for size in SIZES:
        standard = data[("corba-c", size)]
        variant = data[("corba-c-len", size)]
        rows.append([str(size), fmt(standard), fmt(variant),
                     "%.2fx" % (variant / standard)])
    return rows, data


def encode_calls(encode, arg):
    """``(calls, str.encode calls)`` of one ``encode(buffer, 1, arg)``."""
    counts = Counter()

    def hook(_frame, event, called):
        if event == "call" or event == "c_call":
            counts["calls"] += 1
        if event == "c_call" and called.__name__ == "encode" \
                and isinstance(getattr(called, "__self__", None), str):
            counts["str.encode"] += 1

    buffer = MarshalBuffer()
    sys.setprofile(hook)
    try:
        encode(buffer, 1, arg)
    finally:
        sys.setprofile(None)
    return counts["calls"], counts["str.encode"]


def append_encoder(style):
    """The ``append`` request encoder of *style*, its first call (which
    compiles the deferred codec) made."""
    module = api.compile(
        LOG_IDL, "corba", presentation=style, backend="iiop").module
    module._m_req_append(MarshalBuffer(), 1, ARGS[style](1))
    return module._m_req_append


#: What each presentation's ``append`` takes for a line of *n* bytes.
ARGS = {"corba-c": lambda n: "x" * n, "corba-c-len": lambda n: b"x" * n}


class TestPresentationAblation:
    def test_length_presentation_skips_the_count(self, benchmark):
        rows, _data = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table(
            "Ablation (sec. 2.2): standard vs length-carrying string"
            " presentation; append marshal MB/s",
            ("bytes", "corba-c", "corba-c-len", "speedup"),
            rows,
        )
        encoders = {style: append_encoder(style) for style in ARGS}
        for size in SIZES:
            standard, variant = (
                encode_calls(encoders[style], ARGS[style](size))
                for style in ("corba-c", "corba-c-len"))
            assert standard[1] == 1 and variant[1] == 0, (standard, variant)
            assert variant[0] < standard[0], (standard, variant)

    def test_the_count_sees_a_planted_encode(self):
        """An encode slipped into the len presentation's path is caught."""
        base = append_encoder("corba-c-len")
        clean = encode_calls(base, b"line")

        def planted(b, _ctx, line):
            return base(b, _ctx, line.decode("latin-1").encode("latin-1"))

        calls, encodes = encode_calls(planted, b"line")
        assert clean[1] == 0 and encodes == 1 and calls > clean[0]
