"""Graceful-shutdown signal wiring for the serving CLI verbs.

``flick serve`` / ``flick gateway`` historically relied on
``KeyboardInterrupt`` for shutdown, which only covers an interactive
ctrl-C.  Orchestrators speak SIGTERM (and SIGHUP for configuration
reload), so :class:`SignalDriver` maps:

* ``SIGTERM`` / ``SIGINT`` → the shutdown event (callers then *drain*:
  finish in-flight replies, refuse new work, exit 0);
* ``SIGHUP`` → an optional callback (the supervisor's zero-downtime
  schema rollout; ignored when no callback is given).

Signal handlers can only be installed from the main thread; when the
caller runs elsewhere (tests drive ``flick serve`` on a worker thread),
installation degrades to a plain waitable event and ctrl-C keeps
working through ``KeyboardInterrupt`` as before.
"""

from __future__ import annotations

import signal
import threading


class SignalDriver:
    """Maps process signals onto an event (+ optional SIGHUP callback)."""

    def __init__(self, on_hup=None):
        self._shutdown = threading.Event()
        self._on_hup = on_hup
        self._previous = {}
        self.installed = False
        self.last_signal = None

    def install(self):
        """Install handlers; harmless off the main thread."""
        handled = [signal.SIGTERM, signal.SIGINT]
        if hasattr(signal, "SIGHUP"):
            handled.append(signal.SIGHUP)
        try:
            for signum in handled:
                if (hasattr(signal, "SIGHUP")
                        and signum == signal.SIGHUP):
                    self._previous[signum] = signal.signal(
                        signum, self._handle_hup)
                else:
                    self._previous[signum] = signal.signal(
                        signum, self._handle_shutdown)
            self.installed = True
        except ValueError:
            # Not the main thread: leave process signal handling alone.
            self.uninstall()
        return self

    def uninstall(self):
        previous, self._previous = self._previous, {}
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
        self.installed = False

    # -- handlers (run in the main thread, keep them tiny) -------------

    def _handle_shutdown(self, signum, _frame):
        self.last_signal = signum
        self._shutdown.set()

    def _handle_hup(self, signum, _frame):
        self.last_signal = signum
        if self._on_hup is not None:
            self._on_hup()

    # -- caller API ----------------------------------------------------

    def wait(self, timeout=None):
        """Block until shutdown is requested (or *timeout* elapses).

        Returns True when a shutdown was requested.  Waits in slices so
        ``KeyboardInterrupt`` still lands promptly when no handler
        could be installed.
        """
        if timeout is not None:
            return self._shutdown.wait(timeout)
        while not self._shutdown.wait(3600):
            pass
        return True

    def __enter__(self):
        return self.install()

    def __exit__(self, exc_type, exc_value, traceback):
        self.uninstall()
        return False
