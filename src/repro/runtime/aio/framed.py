"""One framed asyncio connection under the aio client, server and gateway.

:class:`FramedConnection` is the single place where the concurrent
runtime touches a socket.  It is an :class:`asyncio.Protocol`, so bytes
arrive and leave through plain callbacks — no per-message task, lock or
``drain()``:

* **one read -> N records.**  Each ``data_received`` chunk goes through
  the shared :class:`~repro.runtime.framing.RecordDecoder` (size and
  fragment caps enforced there) and every record it completes is handed
  to :meth:`records_received` as one list;
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

from repro.errors import TransportError
from repro.runtime.framing import RecordDecoder, encode_record

#: Queued bytes that trigger a write without waiting for the next loop
#: iteration (asyncio's default write-buffer high-water mark).
FLUSH_BYTES = 64 * 1024


class FramedConnection(asyncio.Protocol):
    """A record-marked TCP connection: batch in, coalesced writes out.

    *stats* is an optional object with ``socket_reads`` /
    ``socket_writes`` counters (``ServerStats`` or ``ClientStats``); with
    none attached nothing is counted.
    """

    __slots__ = ("transport", "write_paused", "lost", "_loop", "_decoder",
                 "_outgoing", "_queued", "stats")

    def __init__(self, max_record_size, stats=None):
        self.transport = None
        self.write_paused = False
        self.lost = False
        self._loop = None
        self._decoder = RecordDecoder(max_record_size)
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

    # -- asyncio.Protocol -----------------------------------------------

    def connection_made(self, transport):
        self.transport = transport
        self._loop = asyncio.get_running_loop()

    def data_received(self, data):
        if self.stats is not None:
            self.stats.socket_reads.inc()
        try:
            records = self._decoder.feed(data)
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
        if self.lost:
            return
        record = encode_record(payload)
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
