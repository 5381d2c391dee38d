"""The one HTTP endpoint: a minimal asyncio server over a route table.

A route table maps a path to a callable returning ``(status, content
type, body)``; :class:`MetricsHttpServer` answers ``GET path`` with
whatever the callable says and everything else with 404.  Route
callables run on the default executor, off the event loop, because a
supervisor's aggregate routes make blocking control-channel round
trips.  HTTP/1.0-style: one request per connection, ``Connection:
close`` — all a Prometheus scraper, an orchestrator's probe or ``curl``
needs, and free of any dependency the container does not already have.

:func:`routes_of` is the table every serving process answers::

    GET /metrics   Prometheus text exposition
    GET /profile   the live payload-shape snapshot as JSON (404 while
                   profiling is off)
    GET /healthz   liveness: 200 while the process (for a fleet: the
                   supervisor — a crashed worker is its job, not the
                   orchestrator's) runs
    GET /readyz    readiness: 200 only while accepting and not
                   draining (for a fleet: every worker; a rolling
                   schema swap flickers it, by design)

over anything with ``metrics_text() / profile_json() / healthy() /
ready()`` — a :class:`repro.runtime.service.Service` for one process,
the :class:`~repro.runtime.supervisor.Supervisor` for a fleet, whose
four are the merged ones.  A new endpoint is a new entry in that table.

Usable from asyncio code (``await endpoint.start_async()``) or
synchronously (``start()`` / ``stop()`` spin a daemon event-loop
thread, :class:`repro.loopthread.LoopThread`), like
:class:`~repro.runtime.aio.server.AioTcpServer`.
"""

from __future__ import annotations

import asyncio
import json
import logging
from http import HTTPStatus

from repro.loopthread import LoopThread

#: Cap on request-head size; anything longer is not a scraper.
MAX_REQUEST_BYTES = 8192

#: Seconds a client gets to finish its request head.  One that connects
#: and then says nothing would otherwise hold a task and an fd for ever.
HEAD_TIMEOUT = 5.0

PLAIN = "text/plain; charset=utf-8"

_log = logging.getLogger(__name__)


def routes_of(source):
    """The ``/metrics /profile /healthz /readyz`` table over *source*."""

    def profile():
        snapshot = source.profile_json()
        if snapshot is None:
            return 404, PLAIN, "profiling is off\n"
        return (200, "application/json; charset=utf-8",
                json.dumps(snapshot, sort_keys=True))

    def probe(check, yes, no):
        return lambda: (200, PLAIN, yes) if check() else (503, PLAIN, no)

    return {
        "/metrics": lambda: (
            200, "text/plain; version=0.0.4; charset=utf-8",
            source.metrics_text()),
        "/profile": profile,
        "/healthz": probe(source.healthy, "ok\n", "stopping\n"),
        "/readyz": probe(source.ready, "ready\n", "not ready\n"),
    }


class MetricsHttpServer(LoopThread):
    """Serves one route table (see the module docstring)."""

    thread_name = "flick-metrics-http"

    def __init__(self, routes, host="127.0.0.1", port=0):
        self.routes = routes
        self._host = host
        self._port = port
        self.address = None
        self._server = None
        self._loop = None
        self._handlers = set()

    def _respond(self, method, path):
        """``(status, content type, body)`` for one request; off-loop."""
        if method != "GET":
            return 404, PLAIN, "GET only\n"
        route = self.routes.get(path)
        if route is None:
            return 404, PLAIN, "try %s\n" % " ".join(self.routes)
        try:
            return route()
        except Exception as error:  # the endpoint outlives a broken route
            _log.exception("route %s failed", path)
            return 500, PLAIN, " ".join(
                ("%s: %s" % (type(error).__name__, error)).split()) + "\n"

    # -- async API ------------------------------------------------------

    async def start_async(self):
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port, limit=MAX_REQUEST_BYTES
        )
        self.address = self._server.sockets[0].getsockname()
        return self

    async def aclose(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        handlers = list(self._handlers)
        for task in handlers:  # clients still inside their head timeout
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)

    async def _handle(self, reader, writer):
        self._handlers.add(asyncio.current_task())
        try:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), HEAD_TIMEOUT)
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError):
                return  # silent, slow or over-long: not a scraper
            words = head.split(b"\r\n", 1)[0].decode("latin-1").split(" ")
            target = words[1] if len(words) > 1 else ""
            status, content_type, body = await self._loop.run_in_executor(
                None, self._respond, words[0], target.split("?", 1)[0])
            if isinstance(body, str):
                body = body.encode("utf-8")
            writer.write(
                ("HTTP/1.0 %d %s\r\nContent-Type: %s\r\n"
                 "Content-Length: %d\r\nConnection: close\r\n\r\n"
                 % (status, HTTPStatus(status).phrase, content_type,
                    len(body))
                 ).encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            self._handlers.discard(asyncio.current_task())
            writer.close()

    def _run_loop(self, main):
        # A bare loop, not asyncio.run: the routes run on the default
        # executor, and asyncio.run would join it at exit, holding stop
        # behind a route stuck in a control-channel round trip.
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(main)
        finally:
            asyncio.set_event_loop(None)
            loop.close()
