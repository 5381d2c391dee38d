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

A command is a :class:`Command` and a reply a :class:`Reply`; both
sides read them with :mod:`repro.documents`, so a line of the wrong
shape is refused naming its field.  A worker answers such a line with
``{"ok": false, "error": ...}`` and the line's ``seq`` when it has an
integer one.  Commands the worker answers (see
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
import threading
import time
from dataclasses import dataclass
from typing import Literal, Optional

from repro import documents
from repro.errors import TransportError
from repro.obs.profile import ProfileSnapshot

#: Cap on a single control line; anything longer is a protocol bug.
MAX_LINE = 8 * 1024 * 1024


@dataclass
class Command:
    """One parent -> worker line."""

    cmd: Literal["status", "metrics", "profile", "drain"]
    seq: Optional[int] = None


@dataclass
class Reply:
    """One worker -> parent line: ``ok``, the command's ``seq``, and the
    fields its command answers (see the module docstring)."""

    ok: bool
    seq: Optional[int] = None
    error: Optional[str] = None
    pid: Optional[int] = None
    slot: Optional[int] = None
    generation: Optional[int] = None
    accepting: Optional[bool] = None
    in_flight: Optional[int] = None
    draining: Optional[bool] = None
    text: Optional[str] = None
    snapshot: Optional[ProfileSnapshot] = None


def to_line(record):
    """*record* as one channel line."""
    return json.dumps(documents.write(record)).encode("utf-8") + b"\n"


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

    def request(self, cmd, timeout=5.0):
        """Send one command, return its :class:`Reply`.

        Raises :class:`TransportError` when the worker is unreachable or
        its reply does not read.  Only EOF, torn-channel errors and a
        reply that is not a JSON object close the channel; a timed-out
        reply leaves it open (the worker is busy, not dead — closing
        would read as parent death and make it exit) and the late reply
        is discarded by its ``seq`` on the next request, before its
        fields are checked.  A refused command is a :class:`Reply` with
        ``ok`` false.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            if self.closed:
                raise TransportError("control channel is closed")
            self._seq += 1
            seq = self._seq
            try:
                self._sock.settimeout(timeout)
                self._sock.sendall(to_line(Command(cmd, seq)))
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
                    data = documents.decode(line, "control reply")
                except documents.DocumentError as error:
                    self.close()
                    raise TransportError("malformed %s" % error) from None
                if not isinstance(data, dict):
                    self.close()
                    raise TransportError(
                        "malformed control reply: not an object: %.40r"
                        % (data,))
                if data.get("seq") != seq:
                    # A late reply to an earlier, timed-out request, or
                    # the error answering a line this side did not send.
                    continue
                try:
                    return documents.read(Reply, data, "control reply")
                except documents.DocumentError as error:
                    raise TransportError("malformed %s" % error) from None

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
        text = self.request("metrics", timeout=timeout).text
        if text is None:
            raise TransportError("malformed control reply: no metrics text")
        return text

    def profile_snapshot(self, timeout=5.0):
        """The worker's live :class:`ProfileSnapshot`, or None when it
        does not profile."""
        return self.request("profile", timeout=timeout).snapshot

    def drain(self, timeout=5.0):
        return self.request("drain", timeout=timeout)

    def close(self):
        self.closed = True
        try:
            self._sock.close()
        except OSError:
            pass
