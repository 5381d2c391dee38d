"""The RFC 1831 record-marking codec, shared by every stream transport.

ONC RPC's record marking (RFC 1831 section 10) frames each message as a
sequence of fragments; each fragment is preceded by a 4-byte big-endian
word whose top bit marks the final fragment and whose low 31 bits give the
fragment length.

This module is the only code that writes or parses that word.  Three
entry points:

* :func:`encode_record` frames a payload (optionally splitting it into
  several fragments, which peers must accept); every stream transport
  sends through it, or through :func:`open_record` when it has a header
  field to patch in the framed copy before it leaves.
* :class:`RecordDecoder` is an incremental push parser: ``feed()`` it byte
  chunks as they arrive and it yields complete records, independent of how
  the payload was fragmented by the sender or the network.  Every stream
  reader is a driver of it: the asyncio runtime pushes in a view of what
  each read left in its read buffer (nothing of it is kept), and the
  blocking TCP transport pulls — it asks the socket for
  :attr:`RecordDecoder.read_hint` bytes at a time, so a small record
  costs one ``recv`` and a large one is read to its exact end
  (``socket_transport._RecordStream``).
* :func:`limit_error` builds the error for a record that breaks one of the
  two caps below; :meth:`RecordDecoder.waiting_for` says where in a record
  the stream stands, for the driver that has to report a connection cut
  short there.
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

#: The most a pull driver asks its socket for in one ``recv``, and the
#: size of the read buffer the asyncio runtime reads into.  CPython
#: allocates the size requested before a byte arrives, so asking for what
#: a header merely *announces* would let a peer that trickles a 64 MiB
#: record buy a 64 MiB allocation with every byte.
MAX_RECV_SIZE = 64 * 1024

_MARK = struct.Struct(">I")
_pack_mark = _MARK.pack
_unpack_mark = _MARK.unpack_from
_LENGTH_MASK = LAST_FRAGMENT - 1


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

    The payload is copied once, into the record.  ``max_fragment`` splits
    it into fragments of at most that many bytes — wire-legal per RFC 1831
    and used by the fragmentation tests; receivers reassemble
    transparently.
    """
    size = len(payload)
    if max_fragment is None or size <= max_fragment:
        record = _pack_mark(LAST_FRAGMENT | size) + payload
        if len(record) == HEADER_SIZE + size:
            return record
        # len() counted items wider than a byte (an ``array``, a typed
        # view): frame the bytes underneath.
        return encode_record(memoryview(payload).cast("B"), max_fragment)
    if max_fragment <= 0:
        raise ValueError("max_fragment must be positive")
    data = memoryview(payload).cast("B")
    size = len(data)
    parts = []
    for start in range(0, size, max_fragment):
        piece = data[start:start + max_fragment]
        word = len(piece)
        if start + max_fragment >= size:
            word |= LAST_FRAGMENT
        parts.append(_pack_mark(word))
        parts.append(piece)
    return b"".join(parts)


def open_record(payload):
    """Frame *payload* (bytes-like) as one single-fragment record the
    caller may still write into: a ``bytearray`` whose byte
    ``HEADER_SIZE + n`` is byte *n* of the payload — its one copy."""
    record = bytearray(HEADER_SIZE)
    record += payload
    _MARK.pack_into(record, 0, LAST_FRAGMENT | len(record) - HEADER_SIZE)
    return record


class RecordDecoder:
    """Incremental record-marking parser.

    Feed arbitrary byte chunks; complete records come back in order.  The
    decoder enforces :data:`MAX_RECORD_SIZE` and
    :data:`MAX_FRAGMENTS_PER_RECORD`, raising :class:`WireFormatError`
    (a :class:`~repro.errors.TransportError`) with the offending length on
    violation — the connection is then unusable, framing has lost sync.

    :attr:`read_hint` is how many bytes a driver that pulls should ask its
    socket for next: what the fragment in progress still lacks, or —
    between fragments, when that is not known — a full read; never more
    than :data:`MAX_RECV_SIZE`.
    """

    __slots__ = ("_buffer", "_missing", "_fragments", "_record_size",
                 "max_record_size", "read_hint")

    def __init__(self, max_record_size=MAX_RECORD_SIZE):
        self._buffer = bytearray()  # an incomplete mark, or mark + body
        self._missing = 0  # body bytes the buffered fragment still lacks
        self._fragments = []  # earlier fragments of the record in progress
        self._record_size = 0  # their total length
        self.max_record_size = max_record_size
        self.read_hint = MAX_RECV_SIZE

    def feed(self, data):
        """Consume *data* (bytes-like); return the list of completed
        records, each its own ``bytes``.

        With nothing buffered, records are copied straight out of *data*
        and only an incomplete tail is kept — nothing returned or kept
        aliases *data*, so a driver may hand in a view of a read buffer
        it overwrites with the next read.
        """
        buffer = self._buffer
        if buffer:
            missing = self._missing
            if len(data) < missing:
                # Still short of the fragment's end: one append per
                # chunk, however slowly a large record trickles in.
                buffer += data
                self._missing = missing = missing - len(data)
                self.read_hint = min(missing, MAX_RECV_SIZE)
                return []
            data = b"".join((buffer, data))
            del buffer[:]
            self._missing = 0
            self.read_hint = MAX_RECV_SIZE
        borrowed = type(data) is not bytes  # a slice of it is no copy
        if borrowed and type(data) is not memoryview:
            data = memoryview(data)
        records = []
        fragments = self._fragments
        position = 0
        end = len(data)
        while end - position >= HEADER_SIZE:
            (word,) = _unpack_mark(data, position)
            length = word & _LENGTH_MASK
            size = self._record_size + length
            if size > self.max_record_size:
                raise limit_error("record_size", size, self.max_record_size)
            start = position + HEADER_SIZE
            stop = start + length
            if stop > end:
                self._missing = missing = stop - end
                self.read_hint = min(missing, MAX_RECV_SIZE)
                break
            position = stop
            piece = data[start:stop]
            if borrowed:
                piece = piece.tobytes()
            if not word & LAST_FRAGMENT:
                fragments.append(piece)
                self._record_size = size
                if len(fragments) >= MAX_FRAGMENTS_PER_RECORD:
                    raise limit_error("fragment_count", len(fragments),
                                      MAX_FRAGMENTS_PER_RECORD)
            elif fragments:
                fragments.append(piece)
                records.append(b"".join(fragments))
                del fragments[:]
                self._record_size = 0
            else:
                records.append(piece)
        if position < end:
            buffer += data[position:]
        return records

    @property
    def pending_bytes(self):
        """Bytes buffered toward an incomplete record (diagnostics)."""
        return len(self._buffer) + self._record_size

    def at_record_boundary(self):
        """True when no partial record is buffered (clean EOF check)."""
        return not self._buffer and not self._fragments

    def waiting_for(self):
        """``(what, received, wanted)``: the piece of a record the stream
        stands in — ``"record header"`` or ``"record body"`` — and how
        many of its bytes have arrived.  What a driver reports when the
        connection ends or fails there."""
        held = len(self._buffer)
        if held < HEADER_SIZE:
            return "record header", held, HEADER_SIZE
        held -= HEADER_SIZE
        return "record body", held, held + self._missing
