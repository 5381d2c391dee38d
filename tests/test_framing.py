"""Property tests for the RFC 1831 record-marking codec.

The decoder must reassemble any payload regardless of how the *sender*
fragmented it (fragment sizes are the sender's choice) and of how the
*network* chunked the byte stream (TCP gives no boundary guarantees) —
and it must refuse malformed or abusive framing with a clear
TransportError instead of hanging or buffering without bound.
"""

import array
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransportError, WireFormatError
from repro.runtime.framing import (
    HEADER_SIZE,
    LAST_FRAGMENT,
    MAX_FRAGMENTS_PER_RECORD,
    MAX_RECV_SIZE,
    RecordDecoder,
    encode_record,
)
from repro.runtime.socket_transport import _RecordStream

from tests.rawsock import recv_record


def fed_from_a_read_buffer(chunks, decoder=None, size=256):
    """Feed *chunks* the way the aio runtime does: each lands in one
    reused read buffer, the decoder is handed a view of what landed,
    and the buffer is scribbled over before the next read — so a record
    that aliases the buffer comes out as garbage."""
    decoder = decoder or RecordDecoder()
    buffer = bytearray(size)
    view = memoryview(buffer)
    records = []
    for chunk in chunks:
        for start in range(0, len(chunk), size):
            piece = chunk[start:start + size]
            buffer[:len(piece)] = piece
            records.extend(decoder.feed(view[:len(piece)]))
            buffer[:] = b"\xaa" * size
    assert all(type(record) is bytes for record in records)
    return records


def chunked(data, cuts):
    """Split *data* at pseudo-random points derived from *cuts*."""
    chunks = []
    position = 0
    for cut in cuts:
        if position >= len(data):
            break
        step = 1 + cut % 7
        chunks.append(data[position:position + step])
        position += step
    chunks.append(data[position:])
    return chunks


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        payload=st.binary(max_size=300),
        max_fragment=st.one_of(
            st.none(), st.integers(min_value=1, max_value=64)
        ),
        cuts=st.lists(
            st.integers(min_value=0, max_value=6), max_size=80
        ),
    )
    def test_any_fragmentation_any_chunking(
        self, payload, max_fragment, cuts
    ):
        """Any payload, any sender fragment split, any network chunking:
        the decoder yields exactly the original payload."""
        wire = encode_record(payload, max_fragment=max_fragment)
        decoder = RecordDecoder()
        records = []
        for chunk in chunked(wire, cuts):
            records.extend(decoder.feed(chunk))
        assert records == [payload]
        assert decoder.at_record_boundary()
        assert decoder.pending_bytes == 0
        assert fed_from_a_read_buffer(chunked(wire, cuts)) == [payload]

    @settings(max_examples=40, deadline=None)
    @given(
        payloads=st.lists(st.binary(max_size=60), max_size=5),
        max_fragment=st.one_of(
            st.none(), st.integers(min_value=1, max_value=16)
        ),
        cuts=st.lists(
            st.integers(min_value=0, max_value=6), max_size=120
        ),
    )
    def test_records_stay_ordered(self, payloads, max_fragment, cuts):
        """Back-to-back records survive arbitrary chunking in order."""
        wire = b"".join(
            encode_record(p, max_fragment=max_fragment) for p in payloads
        )
        decoder = RecordDecoder()
        records = []
        for chunk in chunked(wire, cuts):
            records.extend(decoder.feed(chunk))
        assert records == payloads
        assert decoder.at_record_boundary()
        assert fed_from_a_read_buffer(chunked(wire, cuts)) == payloads
        assert fed_from_a_read_buffer([wire]) == payloads  # one read

    @settings(max_examples=30, deadline=None)
    @given(
        payload=st.binary(min_size=1, max_size=200),
        max_fragment=st.integers(min_value=1, max_value=50),
    )
    def test_encode_fragment_structure(self, payload, max_fragment):
        """encode_record's fragment split is wire-legal: every fragment
        fits the limit, only the last carries the high bit, and the
        fragment bodies concatenate to the payload."""
        wire = encode_record(payload, max_fragment=max_fragment)
        bodies = []
        position = 0
        last_flags = []
        while position < len(wire):
            (word,) = struct.unpack_from(">I", wire, position)
            length = word & ~LAST_FRAGMENT
            assert 0 < length <= max_fragment
            bodies.append(
                wire[position + HEADER_SIZE:position + HEADER_SIZE + length]
            )
            last_flags.append(bool(word & LAST_FRAGMENT))
            position += HEADER_SIZE + length
        assert b"".join(bodies) == payload
        assert last_flags[-1] is True
        assert not any(last_flags[:-1])

    def test_empty_record(self):
        assert RecordDecoder().feed(encode_record(b"")) == [b""]

    def test_a_1_mib_record_through_a_64_kib_read_buffer(self):
        payload = bytes(range(256)) * 4096
        decoder = RecordDecoder()
        wire = encode_record(b"before") + encode_record(payload) \
            + encode_record(b"after", max_fragment=2)
        assert fed_from_a_read_buffer(
            [wire], decoder, size=MAX_RECV_SIZE) \
            == [b"before", payload, b"after"]
        assert decoder.at_record_boundary()
        assert decoder.pending_bytes == 0

    @pytest.mark.parametrize("max_fragment", [None, 40000])
    @pytest.mark.parametrize("base, offset", [
        ("mark", 1), ("mark", 2), ("mark", 3), ("body", 0), ("body", 1),
        ("body", 37650), ("end", -1), ("end", 0), ("end", 1)])
    def test_a_large_record_in_two_reads(self, base, offset, max_fragment):
        """A record of more than 64 KiB cut in two reads at each class
        of boundary — inside its mark, inside its body, exactly at its
        end — comes out with the bytes it went in with, whether the
        reads arrive as bytes or as views of one reused buffer."""
        payload = bytes(range(251)) * 300  # 75 300 bytes
        lead = encode_record(b"lead")
        record = encode_record(payload, max_fragment=max_fragment)
        wire = lead + record + encode_record(b"tail")
        cut = len(lead) + offset + {
            "mark": 0, "body": HEADER_SIZE, "end": len(record)}[base]
        expected = [b"lead", payload, b"tail"]
        decoder = RecordDecoder()
        records = decoder.feed(wire[:cut]) + decoder.feed(wire[cut:])
        assert records == expected
        assert all(type(record) is bytes for record in records)
        assert decoder.at_record_boundary()
        assert decoder.pending_bytes == 0
        assert fed_from_a_read_buffer(
            [wire[:cut], wire[cut:]], size=len(wire)) == expected

    def test_many_records_in_one_read(self):
        payloads = [bytes([n]) * n for n in range(200)]
        wire = b"".join(map(encode_record, payloads))
        assert fed_from_a_read_buffer([wire], size=MAX_RECV_SIZE) \
            == payloads

    def test_idle_connections_share_one_read_buffer(self):
        """The read buffer belongs to the event loop: 200 connections
        made on it hold the same object and no read memory of their
        own, and another loop has another buffer."""
        import asyncio

        from repro.runtime.aio.framed import FramedConnection

        def connect(count):
            async def main():
                connections = [FramedConnection(1 << 20)
                               for _ in range(count)]
                for connection in connections:
                    connection.connection_made(None)
                return connections

            return asyncio.run(main())

        connections = connect(200)
        (buffer,) = {id(connection.get_buffer(-1))
                     for connection in connections}
        assert len(connections[0].get_buffer(-1)) == MAX_RECV_SIZE
        assert id(connect(1)[0].get_buffer(-1)) != buffer

    @pytest.mark.parametrize("max_fragment", [None, 3])
    def test_encode_accepts_any_bytes_like(self, max_fragment):
        """The payload is framed by its bytes, whatever object holds
        them: a marshal buffer's view, a bytearray, items wider than a
        byte."""
        words = array.array("i", [1, 2, 3])
        raw = words.tobytes()
        expected = encode_record(raw, max_fragment=max_fragment)
        for payload in (bytearray(raw), memoryview(raw),
                        memoryview(bytearray(raw))[:len(raw)], words,
                        memoryview(words)):
            framed = encode_record(payload, max_fragment=max_fragment)
            assert type(framed) is bytes
            assert framed == expected
        assert RecordDecoder().feed(expected) == [raw]

    def test_decode_returns_bytes_whatever_it_was_fed(self):
        wire = encode_record(b"abc") + encode_record(b"defg", max_fragment=2)
        for chunk in (wire, bytearray(wire), memoryview(wire)):
            records = RecordDecoder().feed(chunk)
            assert records == [b"abc", b"defg"]
            assert all(type(record) is bytes for record in records)


class TestMalformedHeaders:
    def test_oversized_length_rejected(self):
        decoder = RecordDecoder(max_record_size=1024)
        header = struct.pack(">I", LAST_FRAGMENT | 4096)
        with pytest.raises(TransportError, match="exceeds the 1024-byte"):
            decoder.feed(header)

    def test_oversized_across_fragments_rejected(self):
        """The limit applies to the reassembled record, not per fragment."""
        decoder = RecordDecoder(max_record_size=100)
        first = struct.pack(">I", 80) + b"x" * 80  # non-final
        assert decoder.feed(first) == []
        second = struct.pack(">I", LAST_FRAGMENT | 80)
        with pytest.raises(TransportError, match="exceeds the 100-byte"):
            decoder.feed(second)

    def test_fragment_flood_rejected(self):
        """A peer trickling non-final fragments cannot pin the
        connection forever: the fragment-count cap trips."""
        decoder = RecordDecoder()
        flood = struct.pack(">I", 1) + b"a"
        with pytest.raises(TransportError, match="fragments"):
            decoder.feed(flood * (MAX_FRAGMENTS_PER_RECORD + 1))

    @settings(max_examples=30, deadline=None)
    @given(payload=st.binary(min_size=1, max_size=100))
    def test_truncated_input_yields_nothing(self, payload):
        """A truncated record never comes back as data — the decoder
        reports a dirty boundary instead (the transports turn EOF here
        into a descriptive TransportError)."""
        wire = encode_record(payload)
        decoder = RecordDecoder()
        assert decoder.feed(wire[:-1]) == []
        assert not decoder.at_record_boundary()
        assert decoder.pending_bytes > 0

    def test_garbage_header_hits_size_limit(self):
        """Random high-bit-clear garbage parses as an absurd length and
        trips the size guard rather than silently buffering gigabytes."""
        decoder = RecordDecoder()
        with pytest.raises(TransportError):
            decoder.feed(b"\x7f\xff\xff\xff")


# ----------------------------------------------------------------------
# One parser, three ways to drive it, one independent reader
# ----------------------------------------------------------------------

class ScriptedSocket:
    """A socket whose ``recv`` hands out *data* in pieces of the scripted
    *steps* (never more than it was asked for, then whatever is left),
    and records every size it was asked for."""

    def __init__(self, data, steps=()):
        self._data = data
        self._steps = list(steps)
        self._position = 0
        self.asked = []
        self.closed = False

    def recv(self, size):
        if self.closed:
            raise OSError(9, "Bad file descriptor")
        self.asked.append(size)
        if self._steps:
            size = min(size, self._steps.pop(0))
        chunk = self._data[self._position:self._position + size]
        self._position += len(chunk)
        return chunk

    def sendall(self, data):
        if self.closed:
            raise OSError(9, "Bad file descriptor")

    def close(self):
        self.closed = True


def read_until_error(read):
    """Every record *read* returns, and the error that ended them."""
    records = []
    while True:
        try:
            records.append(read())
        except TransportError as error:
            return records, error


def through_helper(wire, limit):
    """What the tests' own exact reader makes of *wire*: the reference."""
    sock = ScriptedSocket(wire)
    return read_until_error(lambda: recv_record(sock, limit))


def through_stream(sock, limit):
    stream = _RecordStream(sock, limit)
    return read_until_error(stream.read)


def through_feed(wire, steps, limit, prime=b""):
    """Push *wire* through ``feed`` in *steps*-sized chunks.  A non-empty
    *prime* is the start of the stream fed on its own first, so every
    later chunk meets a decoder with bytes already buffered."""
    decoder = RecordDecoder(limit)
    records = []
    position = 0
    try:
        for step in [len(prime)] * bool(prime) + list(steps) + [len(wire)]:
            records.extend(decoder.feed(wire[position:position + step]))
            position += step
    except TransportError as error:
        return records, error
    return records, None


def same_failure(error, reference):
    assert type(error) is type(reference)
    assert str(error) == str(reference)
    if isinstance(reference, WireFormatError):
        assert (error.field, error.actual, error.limit) \
            == (reference.field, reference.actual, reference.limit)


#: A stream: records, each with the sender's fragment size, then an
#: optional tail that ends it badly (cut short, or past a cap).
streams = st.tuples(
    st.lists(st.tuples(st.binary(max_size=80),
                       st.one_of(st.none(), st.integers(1, 24))),
             max_size=6),
    st.one_of(
        st.just(b""),
        st.binary(min_size=1, max_size=3),                     # cut mark
        st.builds(lambda body: struct.pack(">I", LAST_FRAGMENT | 200)
                  + body, st.binary(max_size=40)),             # cut body
        st.just(struct.pack(">I", LAST_FRAGMENT | 4000)),      # too large
        st.just(struct.pack(">I", 300) + b"x" * 300
                + struct.pack(">I", LAST_FRAGMENT | 300)),     # summed
    ),
)
chunkings = st.lists(st.integers(min_value=1, max_value=40), max_size=60)

#: Record-size limit the property tests run under (the tails above are
#: sized against it).
LIMIT = 512


class TestEveryReaderAgrees:
    """``feed`` with nothing buffered, ``feed`` on top of buffered bytes,
    and the blocking pull driver all parse with the one decoder; the
    exact reader in ``tests/rawsock.py`` shares no code with it.  On any
    stream all four must produce the same records and the same failure.

    A decoder handed a whole chunk reports a violation anywhere in it
    before handing out the records ahead of it, so there the records are
    a prefix of the reference's.
    """

    @settings(max_examples=120, deadline=None)
    @given(stream=streams, steps=chunkings)
    def test_same_records_same_failure(self, stream, steps):
        records, tail = stream
        wire = b"".join(encode_record(payload, max_fragment=fragment)
                        for payload, fragment in records) + tail
        expected, reference = through_helper(wire, LIMIT)
        assert expected == [payload for payload, _ in records]

        # The blocking driver: scripted arrival, then a real socket pair.
        got, error = through_stream(ScriptedSocket(wire, steps), LIMIT)
        assert got == expected[:len(got)]
        same_failure(error, reference)
        ours, theirs = socket.socketpair()
        with ours, theirs:
            theirs.sendall(wire)
            theirs.shutdown(socket.SHUT_WR)
            got, error = through_stream(ours, LIMIT)
        assert got == expected[:len(got)]
        same_failure(error, reference)

        # The push parser, fresh and on top of a buffered first byte.
        for prime in (b"", wire[:1]):
            got, error = through_feed(wire, steps, LIMIT, prime)
            if isinstance(reference, WireFormatError):
                assert got == expected[:len(got)]
                same_failure(error, reference)
            else:
                assert got == expected and error is None

    def test_cut_at_every_offset(self):
        """A record split in two at any byte — inside the mark included —
        reassembles, and a connection that ends there is reported with
        the message the exact reader gives."""
        payload = bytes(range(40))
        wire = encode_record(b"first") + encode_record(payload, 16)
        for cut in range(1, len(wire)):
            assert through_feed(wire, [cut], LIMIT) \
                == ([b"first", payload], None)
            got, error = through_stream(
                ScriptedSocket(wire, [cut]), LIMIT)
            assert got == [b"first", payload]
            expected, reference = through_helper(wire[:cut], LIMIT)
            got, error = through_stream(
                ScriptedSocket(wire[:cut], [1]), LIMIT)
            assert got == expected
            same_failure(error, reference)

    def test_short_read_messages(self):
        """The three messages ``TestShortReads`` pins on a live
        transport, byte for byte."""
        body = struct.pack(">I", LAST_FRAGMENT | 100) + b"x" * 7
        for wire, message in (
                (b"", "connection closed mid-record header"),
                (b"\x80\x00", "connection closed mid-record header:"
                              " got 2 of 4 bytes"),
                (body, "connection closed mid-record body:"
                       " got 7 of 100 bytes")):
            _records, error = through_stream(ScriptedSocket(wire), LIMIT)
            assert str(error) == message
            same_failure(error, through_helper(wire, LIMIT)[1])

    def test_empty_fragments_up_to_the_cap(self):
        """Zero-length non-final fragments are legal; one short of
        ``MAX_FRAGMENTS_PER_RECORD`` of them still complete a record,
        the cap's worth does not."""
        empty = struct.pack(">I", 0)
        final = encode_record(b"payload")
        legal = empty * (MAX_FRAGMENTS_PER_RECORD - 1) + final
        flood = empty * MAX_FRAGMENTS_PER_RECORD + final
        for wire in (legal, flood):
            expected, reference = through_helper(wire, LIMIT)
            for steps in ([], [5], [4] * 20):
                got, error = through_stream(
                    ScriptedSocket(wire, steps), LIMIT)
                assert got == expected
                same_failure(error, reference)
        assert through_helper(legal, LIMIT)[0] == [b"payload"]
        assert through_helper(flood, LIMIT)[1].field == "fragment_count"


class TestPullDriver:
    def test_one_recv_per_small_record_and_batches_are_kept(self):
        wire = b"".join(encode_record(b"r%d" % n) for n in range(5))
        sock = ScriptedSocket(wire)
        stream = _RecordStream(sock)
        assert [stream.read() for _ in range(5)] \
            == [b"r%d" % n for n in range(5)]
        assert sock.asked == [MAX_RECV_SIZE]

    def test_large_record_is_read_to_its_exact_end(self):
        """After the first read the driver asks for what the record
        still lacks, so it never reads into the record behind it."""
        big = bytes(200_000)
        wire = encode_record(big) + encode_record(b"next")
        sock = ScriptedSocket(wire, [1000])
        stream = _RecordStream(sock)
        assert stream.read() == big
        lacking = len(big) + HEADER_SIZE - 1000
        assert sock.asked == [
            MAX_RECV_SIZE, MAX_RECV_SIZE, MAX_RECV_SIZE, MAX_RECV_SIZE,
            lacking - 3 * MAX_RECV_SIZE]
        assert stream.read() == b"next"

    def test_receive_allocation_is_bounded(self):
        """A mark announcing a record just under the 64 MiB cap, then a
        trickle: no single ``recv`` asks for more than ``MAX_RECV_SIZE``
        (CPython allocates the size asked for before a byte arrives)."""
        announced = 64 * 1024 * 1024 - 1
        wire = struct.pack(">I", LAST_FRAGMENT | announced) + b"x" * 50
        sock = ScriptedSocket(wire, [4] + [1] * 50)
        stream = _RecordStream(sock)
        with pytest.raises(
                TransportError, match="got 50 of %d bytes" % announced):
            stream.read()
        assert len(sock.asked) == 52
        assert max(sock.asked) == MAX_RECV_SIZE

    def test_first_failure_closes_and_is_named_afterwards(self):
        sock = ScriptedSocket(b"\x80")
        stream = _RecordStream(sock)
        with pytest.raises(TransportError, match="got 1 of 4"):
            stream.read()
        assert sock.closed
        for again in (stream.read, lambda: stream.write(b"late")):
            with pytest.raises(TransportError, match="earlier failure"
                               ".*mid-record header: got 1 of 4"):
                again()
