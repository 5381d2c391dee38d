"""Transport wrappers that subject traffic to a :class:`FaultPlan`.

:class:`FaultyTransport` wraps any blocking
:class:`~repro.runtime.transport.Transport` (socket, loopback, or
:class:`~repro.runtime.simnet.SimulatedNetworkTransport`);
:class:`FaultyAioTransport` wraps the protocol gateway's upstream leg, a
:class:`~repro.runtime.aio.client.ConnectionPool` (``acquire`` /
``submit`` / ``send`` / ``aclose``), on the event loop's own
callbacks: no coroutine.

Faults are applied to *requests* before they reach the inner transport;
an injected drop or reset surfaces as a :class:`TransportError`, exactly
what a lost or aborted connection produces (raised by a blocking call or
a oneway ``send``, handed to a two-way ``submit``'s reply callback), so
retry policy, circuit breakers and the gateway's error mapping exercise
their real paths.  Replies can optionally be perturbed too
(``faults_on_replies=True``), which exercises the decode hardening
behind the transport.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque

from repro.errors import TransportError
from repro.runtime.aio.correlation import locate
from repro.runtime.transport import Transport


def _deliveries(injector, request, oneway=False):
    """What *injector* makes of *request*; raises the
    :class:`TransportError` of a reset, or of a dropped two-way call."""
    outcome = injector.on_message(bytes(request))
    if outcome.reset:
        raise TransportError("injected fault: connection reset")
    if not (outcome.deliveries or oneway):
        raise TransportError("injected fault: request dropped")
    return outcome.deliveries


class FaultyTransport(Transport):
    """A blocking transport applying *plan* to each outgoing request."""

    def __init__(self, inner, plan, *, faults_on_replies=False,
                 sleep=time.sleep):
        self._inner = inner
        self.injector = plan.injector()
        self._faults_on_replies = faults_on_replies
        self._sleep = sleep

    def call(self, request):
        reply = None
        for delivery in _deliveries(self.injector, request):
            if delivery.delay_s:
                self._sleep(delivery.delay_s)
            reply = self._inner.call(delivery.payload)
        if self._faults_on_replies and reply is not None:
            reply = self.injector.perturb(reply)
        return reply

    def send(self, request):
        for delivery in _deliveries(self.injector, request, oneway=True):
            if delivery.delay_s:
                self._sleep(delivery.delay_s)
            self._inner.send(delivery.payload)

    def close(self):
        self._inner.close()


class FaultyAioTransport:
    """The gateway's upstream leg, applying *plan* to each request.

    ``acquire`` and ``aclose`` are the inner leg's.  A two-way
    :meth:`submit` that the plan drops or resets fails its reply
    callback at once.  Every delivery goes out from ``loop.call_later``
    (after its delay, or on the next turn of the loop) carrying the
    submitted wire id again, which a corrupted copy may have lost; a
    copy whose header no longer parses fails the callback.  A duplicated
    copy goes out once the first copy's reply is in, and the caller gets
    the last reply (perturbed when ``faults_on_replies``).  A message
    the plan held for reordering follows as a oneway: its own call has
    already failed as dropped.  A oneway :meth:`send` that the plan
    resets raises; one it drops is not sent.
    """

    def __init__(self, inner, plan, *, faults_on_replies=False):
        self._inner = inner
        self.injector = plan.injector()
        self._faults_on_replies = faults_on_replies
        self.acquire = inner.acquire

    def submit(self, connection, wire_id, payload, on_reply):
        releases = self.injector.holding
        try:
            deliveries = deque(_deliveries(self.injector, payload))
        except TransportError as error:
            return on_reply(None, 0, error, None)
        later = asyncio.get_running_loop().call_later
        held = deliveries.pop() if releases else None

        def deliver():
            try:
                _id, offset, stamp = locate(deliveries[0].payload)
            except TransportError as error:
                return on_reply(None, 0, error, None)
            request = bytearray(deliveries.popleft().payload)
            stamp(request, offset, wire_id)
            self._inner.submit(connection, wire_id, request, done)

        def done(reply, offset, error, stamp):
            if error is None and deliveries:
                return later(deliveries[0].delay_s, deliver)
            if error is None and self._faults_on_replies:
                reply = self.injector.perturb(reply)
            on_reply(reply, offset, error, stamp)

        later(deliveries[0].delay_s, deliver)
        if held is not None:
            later(held.delay_s, self._inner.send, connection, held.payload)

    def send(self, connection, payload):
        for delivery in _deliveries(self.injector, payload, oneway=True):
            asyncio.get_running_loop().call_later(
                delivery.delay_s, self._inner.send, connection,
                delivery.payload)

    async def aclose(self):
        await self._inner.aclose()
