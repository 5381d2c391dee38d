"""The per-worker control channel: newline-delimited JSON over a
socketpair.

The supervisor creates one ``socket.socketpair()`` per worker and passes
the child end's file descriptor in the worker's config.  Commands flow
parent → worker, one JSON object per line; each command gets exactly one
JSON-object reply echoing the command's ``seq`` number.  The channel
doubles as a liveness signal: the worker exits when it reads EOF (the
parent died), and the parent treats a closed channel as a dead worker.
Because EOF carries that meaning, a *timed-out* reply must not tear the
channel down — a worker may simply be busy (cold start, a long drain) —
so the client leaves the socket open and uses ``seq`` to discard the
stale reply when it eventually lands.

Commands the worker answers (see
:mod:`repro.runtime.supervisor.worker`):

``status``
    ``{"ok": true, "pid", "slot", "generation", "accepting",
    "in_flight", "draining"}``
``metrics``
    ``{"ok": true, "text": <Prometheus exposition>}``
``profile``
    ``{"ok": true, "snapshot": <ProfileSnapshot JSON> | null}``
``drain``
    Stop accepting, reply ``{"ok": true}`` immediately, then finish
    in-flight requests and exit 0.  The early reply lets the supervisor
    overlap the old worker's drain with spawning its replacement.
"""

from __future__ import annotations

import json
import socket
import threading
import time

from repro.errors import TransportError

#: Cap on a single control line; anything longer is a protocol bug.
MAX_LINE = 8 * 1024 * 1024


class ControlClient:
    """The parent-process side of one worker's control channel.

    Blocking, strictly request/reply, and locked so the monitor thread
    and the aggregated HTTP endpoint can share it safely.
    """

    def __init__(self, sock):
        self._sock = sock
        self._sock.setblocking(True)
        self._buffer = b""
        self._lock = threading.Lock()
        self._seq = 0
        self.closed = False

    def request(self, cmd, timeout=5.0, **fields):
        """Send one command, return its decoded reply (a dict).

        Raises :class:`TransportError` when the worker is unreachable.
        Only EOF, torn-channel errors and a reply that is not a JSON
        object close the channel; a timed-out reply leaves it open (the
        worker is busy, not dead — closing would read as parent death
        and make it exit) and the late reply is discarded by its
        ``seq`` on the next request.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            if self.closed:
                raise TransportError("control channel is closed")
            self._seq += 1
            seq = self._seq
            message = dict(fields, cmd=cmd, seq=seq)
            payload = json.dumps(message).encode("utf-8") + b"\n"
            try:
                self._sock.settimeout(timeout)
                self._sock.sendall(payload)
            except OSError as error:
                self.close()
                raise TransportError(
                    "control channel failed: %s" % error) from error
            while True:
                try:
                    line = self._read_line(deadline)
                except TimeoutError:
                    raise TransportError(
                        "control reply timed out (%s seq %d)"
                        % (cmd, seq)) from None
                except (OSError, ValueError) as error:
                    self.close()
                    raise TransportError(
                        "control channel failed: %s" % error) from error
                try:
                    reply = json.loads(line)
                    if not isinstance(reply, dict):
                        raise ValueError(
                            "not an object: %.40r" % (reply,))
                except ValueError as error:
                    self.close()
                    raise TransportError(
                        "malformed control reply: %s" % error) from error
                if reply.get("seq") in (None, seq):
                    return reply
                # A late reply to an earlier, timed-out request.

    def _field(self, cmd, name, types, timeout):
        """One reply field of *cmd*, refused unless it is a *types*."""
        value = self.request(cmd, timeout=timeout).get(name)
        if not isinstance(value, types):
            raise TransportError(
                "malformed control reply: %s %r is a %s"
                % (cmd, name, type(value).__name__))
        return value

    def _read_line(self, deadline):
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("control reply deadline")
            if len(self._buffer) > MAX_LINE:
                raise ValueError("control reply exceeds %d bytes"
                                 % MAX_LINE)
            self._sock.settimeout(remaining)
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("control channel EOF")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line

    # -- command conveniences ------------------------------------------

    def status(self, timeout=5.0):
        return self.request("status", timeout=timeout)

    def metrics_text(self, timeout=5.0):
        return self._field("metrics", "text", str, timeout)

    def profile_json(self, timeout=5.0):
        return self._field("profile", "snapshot", (dict, type(None)),
                           timeout)

    def drain(self, timeout=5.0):
        return self.request("drain", timeout=timeout)

    def close(self):
        self.closed = True
        try:
            self._sock.close()
        except OSError:
            pass
