"""Multi-process supervised serving with zero-downtime schema rollout.

``flick serve --workers N`` (and ``flick gateway --workers N``) runs a
*supervisor*: a parent process that owns the listen address, spawns N
worker processes sharing it (``SO_REUSEPORT`` accept sharding, or an
inherited listener where the option is missing), and keeps the fleet
serving through crashes and schema changes:

* a worker that dies is restarted with exponential backoff per slot;
  in-flight calls on the dead worker fail over via the client runtime's
  retry and stale-connection handling;
* ``SIGHUP`` re-reads the IDL file, diffs the running schema against it
  with the :mod:`repro.compat` engine, and — only when the verdict is
  ``WIRE_IDENTICAL`` or ``DECODE_COMPATIBLE`` — rolls new workers in
  one at a time with a graceful drain, so some workers always accept;
  a ``BREAKING`` change is refused with the full compat report and the
  old generation keeps serving;
* per-worker ``ServerStats`` and payload-shape profiles aggregate
  into the supervisor's ``metrics_text()`` / ``profile_json()``, next
  to ``healthy()`` (liveness) and ``ready()`` (readiness: every worker
  accepting) — the four questions :func:`repro.obs.http.routes_of`
  serves as ``/metrics /profile /healthz /readyz``, for a fleet as for
  one process.

The pieces: a :class:`repro.runtime.service.ServiceConfig` is the
fleet's template and, saved as JSON per spawn, the contract between
parent and worker; :mod:`~repro.runtime.supervisor.control` the
per-worker control channel; :mod:`~repro.runtime.supervisor.worker` the
worker entry point (``python -m repro.runtime.supervisor.worker``), a
driver of the same :func:`repro.runtime.service.build` the
single-process verbs use; :mod:`~repro.runtime.supervisor.supervisor`
the parent.
"""

from repro.runtime.supervisor.control import ControlClient
from repro.runtime.supervisor.supervisor import (
    Supervisor,
    merge_prometheus,
)

__all__ = [
    "ControlClient",
    "merge_prometheus",
    "Supervisor",
]
