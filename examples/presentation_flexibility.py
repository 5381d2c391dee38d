#!/usr/bin/env python
"""Presentation flexibility: same network contract, different programmer's
contracts (paper section 2.2).

The paper's motivating example: by departing from the standard CORBA C
mapping, ``Mail_send`` can take an explicit length so the stub "would no
longer need to count the number of characters in the message" — and the
messages on the wire do not change.  This example compiles the same
interface under three presentations, prints the differing C contracts,
proves the wire bytes identical, and measures the marshal-rate difference.
"""

import time

from repro import api
from repro.cast import emit_c
from repro.encoding import MarshalBuffer
from repro.runtime import LoopbackTransport

IDL = """
interface Mail {
    long send(in string msg);
};
"""


def c_contract(result):
    for line in emit_c([result.presc.stub_named("send").c_decl]).splitlines():
        if "send(" in line:
            return line.strip()
    return "?"


def marshal_rate(module, value, seconds=0.2):
    buffer = MarshalBuffer()
    module._m_req_send(buffer, 1, value)
    size = buffer.length
    count = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        buffer.reset()
        module._m_req_send(buffer, 1, value)
        count += 1
    return size * count / (time.perf_counter() - start) / 1e6


def main():
    presentations = {}
    for style in ("corba-c", "corba-c-len", "fluke"):
        presentations[style] = api.compile(
            IDL, "corba", presentation=style, backend="iiop")

    print("Three programmer's contracts for one network contract:\n")
    for style, result in presentations.items():
        print("  %-12s %s" % (style, c_contract(result)))

    # Identical wire bytes from the standard and length presentations.
    standard = presentations["corba-c"].module
    with_length = presentations["corba-c-len"].module
    text = "The quick brown fox jumps over the lazy dog." * 8000
    encoded = text.encode("latin-1")
    buffer_a, buffer_b = MarshalBuffer(), MarshalBuffer()
    standard._m_req_send(buffer_a, 7, text)
    with_length._m_req_send(buffer_b, 7, encoded)
    assert buffer_a.getvalue() == buffer_b.getvalue()
    print("\nwire bytes are identical across presentations"
          " (%d-byte request)" % len(buffer_a.getvalue()))

    # And the variant is measurably faster: no count, no encode.
    standard_rate = marshal_rate(standard, text)
    variant_rate = marshal_rate(with_length, encoded)
    print("marshal rate, standard contract:        %6.0f MB/s"
          % standard_rate)
    print("marshal rate, length-carrying contract: %6.0f MB/s  (%.2fx)"
          % (variant_rate, variant_rate / standard_rate))

    # The two presentations interoperate over one server.
    class Impl(with_length.MailServant):
        def send(self, msg):
            return len(msg)

    transport = LoopbackTransport(with_length.dispatch, Impl())
    assert standard.MailClient(transport).send("hello") == 5
    assert with_length.MailClient(transport).send(b"hello") == 5
    print("\nstandard and length clients served by one servant: OK")


if __name__ == "__main__":
    main()
