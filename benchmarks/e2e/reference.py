"""Hand-written reference encoders for the benchmark's message bodies.

The compiler under test is never its own oracle: these functions build
the XDR (RFC 1832) and big-endian CDR (CORBA 2.0 ch. 12) *bodies* of the
benchmark's payloads with ``struct.pack`` alone and import nothing from
``repro``.  A request or reply is correct when its bytes end with the
reference body (the protocol headers in front are the back end's
business; the bodies are where the marshal optimizations act).

Plain values are the input, not generated record classes:

* ints     -- a list of signed 32-bit integers
* rects    -- a list of ``(ul_x, ul_y, lr_x, lr_y)`` tuples
* dirents  -- a list of ``(name, thirty_ints, tag16)`` tuples

Both formats are big-endian with 4-byte words, and every body here
starts on a 4-byte boundary of its message, so the two differ only in
how a string is laid out: XDR writes the length then the bytes padded to
four; CDR writes the length *including* a terminating NUL, the bytes,
the NUL, then pads to the alignment of whatever follows.
"""

import struct


def _pad4(length):
    return -length % 4


def long_body(value):
    """One signed 32-bit integer (the same in XDR and CDR)."""
    return struct.pack(">i", value)


def ints_body(values):
    """``sequence<long>`` / ``int<>``: count, then the integers."""
    return struct.pack(">I%di" % len(values), len(values), *values)


def rects_body(rects):
    """A sequence of rectangles: count, then four integers each."""
    parts = [struct.pack(">I", len(rects))]
    for rect in rects:
        parts.append(struct.pack(">4i", *rect))
    return b"".join(parts)


def xdr_string(text):
    data = text.encode("latin-1")
    return struct.pack(">I", len(data)) + data + b"\0" * _pad4(len(data))


def cdr_string(text):
    """A CDR string starting on a 4-byte boundary, with the padding that
    realigns to four (what every field after a string in these schemas
    needs)."""
    data = text.encode("latin-1") + b"\0"
    return struct.pack(">I", len(data)) + data + b"\0" * _pad4(len(data))


def _dirents_body(dirents, string):
    parts = [struct.pack(">I", len(dirents))]
    for name, numbers, tag in dirents:
        parts.append(string(name))
        parts.append(struct.pack(">30i", *numbers))
        parts.append(tag)
    return b"".join(parts)


def xdr_dirents_body(dirents):
    """Directory entries in XDR: string, thirty ints, opaque[16]."""
    return _dirents_body(dirents, xdr_string)


def cdr_dirents_body(dirents):
    """Directory entries in big-endian CDR (body 4-aligned in its
    message, which both GIOP headers of these interfaces guarantee)."""
    return _dirents_body(dirents, cdr_string)


def xdr_string_long_body(text, number):
    """``(string, long)`` arguments in XDR."""
    return xdr_string(text) + struct.pack(">i", number)


def cdr_string_long_body(text, number):
    """``(string, long)`` arguments in CDR, body 4-aligned."""
    return cdr_string(text) + struct.pack(">i", number)


def native_rects_tail(rects):
    """Mach 3 and Fluke messages are host-order (little-endian here)
    with their own descriptors; the reference covers the element run
    that ends the message, not the descriptors before it."""
    return b"".join(struct.pack("<4i", *rect) for rect in rects)


def native_string_long_tail(_text, number):
    """The trailing integer of a ``(string, long)`` native message."""
    return struct.pack("<i", number)


#: wire family -> shape -> body encoder over plain values.
BODIES = {
    "xdr": {
        "ints": ints_body,
        "rects": rects_body,
        "dirents": xdr_dirents_body,
        "string_long": xdr_string_long_body,
    },
    "cdr": {
        "ints": ints_body,
        "rects": rects_body,
        "dirents": cdr_dirents_body,
        "string_long": cdr_string_long_body,
    },
    # compile_cold only: the kernel-IPC back ends cannot be served over
    # TCP, so just the tail of their first encode is checked.
    "native": {
        "rects": native_rects_tail,
        "string_long": native_string_long_tail,
    },
}
