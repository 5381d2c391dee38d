"""Transport base class, the in-process loopback transport, and the
socket deadline the blocking client transports share."""

from __future__ import annotations

import abc
import socket
import struct

from repro.errors import TransportError
from repro.encoding.buffer import MarshalBuffer


def deadline_timeval(deadline):
    """*deadline* (seconds; None for none) as the native ``struct
    timeval`` that ``SO_RCVTIMEO``/``SO_SNDTIMEO`` take, or None.

    Raises :class:`ValueError` unless the deadline is positive.  A zero
    timeval means "wait forever", so a positive deadline shorter than
    half a microsecond becomes one microsecond, not that.
    """
    if deadline is None:
        return None
    if not deadline > 0:
        raise ValueError(
            "a deadline is a positive number of seconds or None, not %r"
            % (deadline,))
    micros = max(1, round(deadline * 1e6))
    return struct.pack("@ll", *divmod(micros, 1000000))


def set_deadline(sock, timeval):
    """Leave *sock* blocking, each ``send`` and ``recv`` bounded by
    *timeval* (from :func:`deadline_timeval`; None: unbounded).

    The kernel enforces the bound and fails the call with ``EAGAIN``
    (:class:`BlockingIOError`).  A Python-level ``settimeout()`` would
    enforce the same bound by a ``poll()`` before every call instead.
    """
    sock.settimeout(None)
    if timeval is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)


class Transport(abc.ABC):
    """What generated client proxies require of a transport."""

    @abc.abstractmethod
    def call(self, request):
        """Deliver *request* (bytes-like) and return the reply bytes."""

    @abc.abstractmethod
    def send(self, request):
        """Deliver *request* with no reply expected (oneway)."""

    def close(self):
        """Release any resources (default: nothing)."""


class LoopbackTransport(Transport):
    """Client and server in one process, no network: the fastest path.

    Useful for tests, examples, and for measuring pure stub overhead.  The
    server side is a generated ``dispatch`` function plus an implementation
    object; the reply marshal buffer is reused across calls, as a real
    single-threaded server loop would.

    The simulated links (:mod:`repro.runtime.simnet`, ``machipc``,
    ``flukeipc``) are this loop with a cost per hop: each overrides
    :meth:`_carry` to add to :attr:`simulated_seconds`, which a loopback
    hop leaves at zero.
    """

    def __init__(self, dispatch, impl):
        self._dispatch = dispatch
        self._impl = impl
        self._reply_buf = MarshalBuffer()
        self.requests_handled = 0
        self.bytes_carried = 0
        self.simulated_seconds = 0.0

    def reset_clock(self):
        self.simulated_seconds = 0.0
        self.bytes_carried = 0

    def _carry(self, message):
        """Move *message* one hop; returns what arrives."""
        self.bytes_carried += len(message)
        return message

    def _deliver(self, request):
        self.requests_handled += 1
        buffer = self._reply_buf
        buffer.reset()
        return self._dispatch(self._carry(request), self._impl, buffer)

    def call(self, request):
        if not self._deliver(request):
            raise TransportError(
                "two-way call reached a oneway-only dispatch path"
            )
        return self._carry(self._reply_buf.getvalue())

    def send(self, request):
        self._deliver(request)
