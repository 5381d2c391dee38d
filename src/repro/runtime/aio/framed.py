"""One framed asyncio connection under the aio client, server and gateway.

:class:`FramedConnection` is the single place where the concurrent
runtime touches a socket.  It is an :class:`asyncio.BufferedProtocol`,
so bytes arrive and leave through plain callbacks — no per-message task,
lock or ``drain()`` — and a read allocates nothing but the records it
completes:

* **one read -> N records.**  The socket is read into a buffer the
  runtime owns (``recv_into``, :data:`~repro.runtime.framing
  .MAX_RECV_SIZE` bytes; an :class:`asyncio.Protocol` is handed fresh
  ``bytes`` instead, for which CPython allocates 256 KiB before a byte
  arrives).  What the read left there goes, as a view, through the
  shared :class:`~repro.runtime.framing.RecordDecoder` (size and
  fragment caps enforced there), which copies each record it completes
  out once, and all of them are handed to :meth:`records_received` as
  one list.  **The buffer is one per event loop, not per connection:**
  the loop calls ``get_buffer``, ``recv_into`` and ``buffer_updated``
  back to back in one selector callback and the decoder keeps no
  reference into the view, so nothing lives in the buffer between two
  reads and an idle connection owns no read memory;
* **N records -> one write.**  :meth:`send_record` only queues; whatever
  was queued during one event-loop iteration leaves in a single
  ``transport.write`` at the start of the next (sooner once
  :data:`FLUSH_BYTES` are queued, so a burst of large records meets the
  transport's flow control while it is being produced, not after);
* **back-pressure is the transport's own.**  ``pause_writing`` /
  ``resume_writing`` flip :attr:`write_paused` and call
  :meth:`writable_changed`; what that means differs by side — a server
  stops reading from (and starting work for) a peer that does not read
  its replies, a client holds further sends while it keeps reading —
  so the reaction lives in the subclass, the rule in one place.

asyncio sets ``TCP_NODELAY`` on every TCP transport it creates, so
coalescing is decided here and not by Nagle's algorithm.
"""

from __future__ import annotations

import asyncio
import weakref

from repro.errors import TransportError
from repro.runtime.framing import MAX_RECV_SIZE, RecordDecoder, encode_record

#: Queued bytes that trigger a write without waiting for the next loop
#: iteration (asyncio's default write-buffer high-water mark).
FLUSH_BYTES = 64 * 1024

_read_buffers = weakref.WeakKeyDictionary()  # event loop -> memoryview


def _read_buffer(loop):
    """The one read buffer of *loop* (see the module docstring)."""
    buffer = _read_buffers.get(loop)
    if buffer is None:
        buffer = _read_buffers[loop] = memoryview(bytearray(MAX_RECV_SIZE))
    return buffer


class FramedConnection(asyncio.BufferedProtocol):
    """A record-marked TCP connection: batch in, coalesced writes out.

    *stats* is an optional object with ``socket_reads`` /
    ``socket_writes`` counters (``ServerStats`` or ``ClientStats``); with
    none attached nothing is counted.
    """

    __slots__ = ("transport", "write_paused", "lost", "_loop", "_decoder",
                 "_incoming", "_outgoing", "_queued", "stats")

    def __init__(self, max_record_size, stats=None):
        self.transport = None
        self.write_paused = False
        self.lost = False
        self._loop = None
        self._decoder = RecordDecoder(max_record_size)
        self._incoming = None  # the loop's read buffer
        self._outgoing = []
        self._queued = 0  # bytes in _outgoing
        self.stats = stats

    # -- hooks for the two sides ----------------------------------------

    def records_received(self, records):
        """Every record completed by one socket read, in wire order."""
        raise NotImplementedError

    def framing_lost(self, error):
        """The byte stream violated record marking; it cannot resync."""
        raise NotImplementedError

    def writable_changed(self):
        """:attr:`write_paused` flipped (the peer stopped/resumed reading)."""

    # -- asyncio.BufferedProtocol ---------------------------------------

    def connection_made(self, transport):
        self.transport = transport
        self._loop = asyncio.get_running_loop()
        self._incoming = _read_buffer(self._loop)

    def get_buffer(self, sizehint):
        return self._incoming

    def buffer_updated(self, nbytes):
        if self.stats is not None:
            self.stats.socket_reads.inc()
        try:
            records = self._decoder.feed(self._incoming[:nbytes])
        except TransportError as error:
            self.framing_lost(error)
            return
        if records:
            self.records_received(records)

    def pause_writing(self):
        self.write_paused = True
        self.writable_changed()

    def resume_writing(self):
        self.write_paused = False
        self.writable_changed()

    def connection_lost(self, exc):
        self.lost = True
        self.write_paused = False
        del self._outgoing[:]

    # -- sending --------------------------------------------------------

    def send_record(self, payload):
        """Queue *payload* (bytes-like; copied now) as one record."""
        self.send_framed(encode_record(payload))

    def send_framed(self, record):
        """Queue *record* — bytes already framed (``framing
        .encode_record`` / ``open_record``) that the caller gives up."""
        if self.lost:
            return
        self._queued += len(record)
        if self._queued >= FLUSH_BYTES:
            self._outgoing.append(record)
            self._flush()
            return
        if not self._outgoing:
            self._loop.call_soon(self._flush)
        self._outgoing.append(record)

    def _flush(self):
        outgoing = self._outgoing
        if not outgoing or self.lost:
            return
        self._outgoing = []
        self._queued = 0
        if self.stats is not None:
            self.stats.socket_writes.inc()
        self.transport.write(
            outgoing[0] if len(outgoing) == 1 else b"".join(outgoing)
        )

    def close(self):
        """Send what is queued, then close once the transport drains."""
        if self.transport is not None:
            self._flush()
            self.transport.close()
