"""A plain record reader for raw-socket tests.

Tests that talk to a live server over a bare socket read replies with
:func:`recv_record`: it blocks for exactly the bytes it needs, four for a
record mark and then the length the mark announces, and imports nothing
from :mod:`repro.runtime.framing` but the caps and their error.  That
makes it the independent reader the production stream
(``RecordDecoder`` and its blocking driver) is checked against in
``test_framing.py``.
"""

import struct

from repro.errors import TransportError
from repro.runtime.framing import (
    MAX_FRAGMENTS_PER_RECORD,
    MAX_RECORD_SIZE,
    limit_error,
)


def recv_exact(sock, size, what="record"):
    chunks = []
    remaining = size
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError as error:
            raise TransportError(
                "connection error while reading %s: %s" % (what, error)
            ) from error
        if not chunk:
            received = size - remaining
            if received:
                raise TransportError(
                    "connection closed mid-%s: got %d of %d bytes"
                    % (what, received, size))
            raise TransportError("connection closed mid-%s" % what)
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_record(sock, max_record_size=MAX_RECORD_SIZE):
    fragments = []
    total = 0
    while True:
        (word,) = struct.unpack(">I", recv_exact(sock, 4, "record header"))
        length = word & 0x7FFFFFFF
        total += length
        if total > max_record_size:
            raise limit_error("record_size", total, max_record_size)
        fragments.append(recv_exact(sock, length, "record body"))
        if word & 0x80000000:
            return b"".join(fragments)
        if len(fragments) >= MAX_FRAGMENTS_PER_RECORD:
            raise limit_error("fragment_count", len(fragments),
                              MAX_FRAGMENTS_PER_RECORD)
