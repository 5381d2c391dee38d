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
"""

import pytest

from repro import api

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


class TestPresentationAblation:
    def test_length_presentation_skips_the_count(self, benchmark):
        rows, data = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table(
            "Ablation (sec. 2.2): standard vs length-carrying string"
            " presentation; append marshal MB/s",
            ("bytes", "corba-c", "corba-c-len", "speedup"),
            rows,
        )
        # Skipping encode/count must win, and win more as strings grow.
        for size in (4096, 262144):
            assert data[("corba-c-len", size)] > data[("corba-c", size)]
        small = data[("corba-c-len", 64)] / data[("corba-c", 64)]
        large = (
            data[("corba-c-len", 262144)] / data[("corba-c", 262144)]
        )
        assert large > small
