"""The synchronous face of an asyncio server: its event loop on a thread.

A server class with ``start_async()`` (which sets ``self._loop``) and
``aclose()`` coroutines mixes in :class:`LoopThread` to be driven from
synchronous code as well: ``start()`` runs the loop on a daemon thread
and returns once the server listens (raising whatever ``start_async``
raised), ``stop()`` has the loop run ``aclose()`` and joins the thread,
and ``with server:`` does both.  The asyncio RPC server
(:class:`repro.runtime.aio.server.AioTcpServer`, and the protocol
gateway over it) and the HTTP endpoint
(:class:`repro.obs.http.MetricsHttpServer`) share this one copy.
"""

from __future__ import annotations

import asyncio
import threading


class LoopThread:
    """``start``/``stop``/``with`` over ``start_async``/``aclose``."""

    #: The loop thread's name.
    thread_name = "flick-loop"
    #: Seconds ``aclose`` grants work in flight; :meth:`stop` waits that
    #: long plus five seconds unless told otherwise.
    drain_timeout = 0.0
    _thread = None
    _stop_event = None
    _start_error = None

    def start(self):
        """Serve on a background event-loop thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        started = threading.Event()
        self._start_error = None

        def run():
            try:
                self._run_loop(self._run_on_thread(started))
            finally:
                started.set()  # in case startup itself failed

        self._thread = threading.Thread(
            target=run, name=self.thread_name, daemon=True
        )
        self._thread.start()
        started.wait()
        if self._start_error is not None:
            error, self._start_error = self._start_error, None
            self._thread.join()
            self._thread = None
            raise error
        return self

    def _run_loop(self, main):
        """Run the coroutine *main* on this thread's own loop.

        ``asyncio.run``, not a bare loop: once serving ends it sees late
        accepts and closing transports through before the loop is
        closed under them, and it joins the default executor.
        """
        asyncio.run(main)

    async def _run_on_thread(self, started):
        self._stop_event = asyncio.Event()
        try:
            await self.start_async()
        except Exception as error:  # surfaced by start()
            self._start_error = error
            return
        finally:
            started.set()
        await self._stop_event.wait()
        await self.aclose()

    def stop(self, timeout=None):
        """Gracefully stop a server started with :meth:`start`."""
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(
            timeout=timeout if timeout is not None
            else self.drain_timeout + 5.0
        )
        self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback):
        self.stop()
        return False
