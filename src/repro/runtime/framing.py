"""The RFC 1831 record-marking codec, shared by every stream transport.

ONC RPC's record marking (RFC 1831 section 10) frames each message as a
sequence of fragments; each fragment is preceded by a 4-byte big-endian
word whose top bit marks the final fragment and whose low 31 bits give the
fragment length.

Three entry points:

* :func:`encode_record` frames a payload (optionally splitting it into
  several fragments, which peers must accept); every stream transport
  sends through it.
* :class:`RecordDecoder` is an incremental push parser: ``feed()`` it byte
  chunks as they arrive and it yields complete records, independent of how
  the payload was fragmented by the sender or the network.  The asyncio
  runtime reads through it.
* :func:`limit_error` builds the error for a record that breaks one of the
  two caps below.  The blocking TCP transport reads with its own pull loop
  (``socket_transport._recv_record``: it can block for exactly the bytes
  it needs, where the decoder must buffer whatever arrives), so the caps
  and their failure mode are what the two readers share.
"""

from __future__ import annotations

import struct

from repro.errors import WireFormatError

#: High bit of the record-marking word: this fragment is the last one.
LAST_FRAGMENT = 0x80000000

#: Size of the record-marking word.
HEADER_SIZE = 4

#: Refuse records larger than this (a malicious or corrupt header would
#: otherwise make a receiver buffer up to 2 GiB per record).
MAX_RECORD_SIZE = 64 * 1024 * 1024

#: Refuse records spread over absurdly many empty fragments (a peer
#: streaming zero-length non-final fragments would otherwise pin the
#: connection forever without ever completing a record).
MAX_FRAGMENTS_PER_RECORD = 4096


def limit_error(field, actual, limit):
    """The :class:`WireFormatError` for a record past a framing cap.

    *field* is ``"record_size"`` (*actual* bytes announced so far against
    the reader's record-size *limit*) or ``"fragment_count"``.  Framing
    has lost sync once this is raised; the connection is unusable.
    """
    if field == "record_size":
        message = "record of %d+ bytes exceeds the %d-byte limit" \
            % (actual, limit)
    else:
        message = "record spread over more than %d fragments" % limit
    return WireFormatError(message, field=field, limit=limit, actual=actual)


def encode_record(payload, max_fragment=None):
    """Frame *payload* (bytes-like) as one record; returns ``bytes``.

    ``max_fragment`` splits the payload into fragments of at most that
    many bytes — wire-legal per RFC 1831 and used by the fragmentation
    tests; receivers reassemble transparently.
    """
    data = bytes(payload)
    if max_fragment is None or len(data) <= max_fragment:
        return struct.pack(">I", LAST_FRAGMENT | len(data)) + data
    if max_fragment <= 0:
        raise ValueError("max_fragment must be positive")
    parts = []
    for start in range(0, len(data), max_fragment):
        piece = data[start:start + max_fragment]
        word = len(piece)
        if start + max_fragment >= len(data):
            word |= LAST_FRAGMENT
        parts.append(struct.pack(">I", word))
        parts.append(piece)
    return b"".join(parts)


class RecordDecoder:
    """Incremental record-marking parser.

    Feed arbitrary byte chunks; complete records come back in order.  The
    decoder enforces :data:`MAX_RECORD_SIZE` and
    :data:`MAX_FRAGMENTS_PER_RECORD`, raising :class:`WireFormatError`
    (a :class:`~repro.errors.TransportError`) with the offending length on
    violation — the connection is then unusable, framing has lost sync.
    """

    __slots__ = ("_buffer", "_fragments", "_record_size", "_fragment_count",
                 "max_record_size")

    def __init__(self, max_record_size=MAX_RECORD_SIZE):
        self._buffer = bytearray()
        self._fragments = []
        self._record_size = 0
        self._fragment_count = 0
        self.max_record_size = max_record_size

    def feed(self, data):
        """Consume *data*; return the list of completed records."""
        self._buffer.extend(data)
        records = []
        while True:
            if len(self._buffer) < HEADER_SIZE:
                return records
            (word,) = struct.unpack_from(">I", self._buffer, 0)
            length = word & ~LAST_FRAGMENT
            if self._record_size + length > self.max_record_size:
                raise limit_error("record_size", self._record_size + length,
                                  self.max_record_size)
            if len(self._buffer) < HEADER_SIZE + length:
                return records
            fragment = bytes(self._buffer[HEADER_SIZE:HEADER_SIZE + length])
            del self._buffer[:HEADER_SIZE + length]
            self._fragments.append(fragment)
            self._record_size += length
            self._fragment_count += 1
            if word & LAST_FRAGMENT:
                records.append(b"".join(self._fragments))
                self._fragments = []
                self._record_size = 0
                self._fragment_count = 0
            elif self._fragment_count >= MAX_FRAGMENTS_PER_RECORD:
                raise limit_error("fragment_count", self._fragment_count,
                                  MAX_FRAGMENTS_PER_RECORD)

    @property
    def pending_bytes(self):
        """Bytes buffered toward an incomplete record (diagnostics)."""
        return len(self._buffer) + self._record_size

    def at_record_boundary(self):
        """True when no partial record is buffered (clean EOF check)."""
        return not self._buffer and not self._fragments
