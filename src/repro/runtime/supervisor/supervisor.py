"""The supervisor: spawn, restart, and roll workers over one address.

See the package docstring for the model.  The supervisor owns:

* the **listen address** — with ``SO_REUSEPORT`` it binds a placeholder
  socket (bound, never listening) that pins the concrete port while
  each worker binds its own listening socket to it; without the option
  it binds the one listener itself and children inherit the fd;
* the **fleet** — one slot per worker; a monitor thread reaps crashed
  workers and respawns them with exponential per-slot backoff
  (deterministic: ``base * 2**(failures-1)``, capped, reset after a
  stable-uptime window);
* the **schema generation** — ``rollout()`` re-reads the IDL file,
  diffs it against the running generation with :func:`repro.compat
  .diff_texts` under the serving protocol, and replaces workers one at
  a time (graceful drain, then spawn, then wait ready) only when the
  verdict is ``WIRE_IDENTICAL`` or ``DECODE_COMPATIBLE``.  A
  ``BREAKING`` schema is refused with the full report and the running
  generation keeps serving.  Generation schemas are written to
  content-hashed side-by-side files, so a worker's config names
  exactly the bytes it compiled;
* the **aggregated view** — worker metrics sum into one Prometheus
  exposition (:func:`merge_prometheus`) under the supervisor's own
  restart/rollout/up metrics, and live payload-shape profiles merge
  via :meth:`ProfileSnapshot.merge`.
"""

from __future__ import annotations

import copy
import glob
import hashlib
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

from repro import documents
from repro.errors import FlickError, TransportError
from repro.obs.metrics import MetricsRegistry, _label_text, parse_prometheus
from repro.obs.profile import ProfileSnapshot
from repro.runtime.service import compile_handles
from repro.runtime.supervisor.control import ControlClient

#: Map diff exit codes onto verdict names for rollout outcomes.
_VERDICTS = {0: "WIRE_IDENTICAL", 1: "DECODE_COMPATIBLE", 2: "BREAKING"}


def merge_prometheus(texts):
    """Sum several Prometheus expositions into one.

    Counter and histogram series (including cumulative ``_bucket``
    lines, which stay cumulative under addition) sum across workers;
    ``*_sample_rate`` gauges take the max (every worker reports its
    configured rate).  ``# HELP``/``# TYPE`` lines are preserved from
    the first exposition that carries them.  An exposition that does
    not parse is left out whole: one misbehaving worker must not take
    the fleet's ``/metrics`` down.
    """
    meta = {}
    emitted_meta = set()
    values = {}
    order = []
    for text in texts:
        try:
            parsed = parse_prometheus(text)
        except ValueError:
            continue
        for line in text.splitlines():
            if line.startswith("#"):
                parts = line.split(None, 3)
                if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                    meta.setdefault(parts[2], {}).setdefault(
                        parts[1], line)
        for name, series in parsed.items():
            if name not in values:
                values[name] = {}
                order.append(name)
            for labels, value in series.items():
                if name.endswith("_sample_rate"):
                    values[name][labels] = max(
                        values[name].get(labels, 0.0), value)
                else:
                    values[name][labels] = (
                        values[name].get(labels, 0.0) + value)
    lines = []
    for name in order:
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in meta:
                family = name[:-len(suffix)]
                break
        if family in meta and family not in emitted_meta:
            emitted_meta.add(family)
            for kind in ("HELP", "TYPE"):
                if kind in meta[family]:
                    lines.append(meta[family][kind])
        for labels in sorted(values[name]):
            value = values[name][labels]
            text_value = ("%d" % value if value == int(value)
                          else repr(value))
            label_text = _label_text([key for key, _val in labels],
                                     [val for _key, val in labels])
            lines.append("%s%s %s" % (name, label_text, text_value))
    for family, kinds in meta.items():
        if family not in emitted_meta:  # declared, no series yet: a
            # fleet names the families one process names
            lines.extend(kinds[kind] for kind in ("HELP", "TYPE")
                         if kind in kinds)
    return "\n".join(lines) + "\n"


class _WorkerHandle:
    """One slot's live state."""

    __slots__ = ("slot", "process", "control", "pid", "generation",
                 "started_at", "failures", "respawn_at", "expected_exit")

    def __init__(self, slot):
        self.slot = slot
        self.process = None
        self.control = None
        self.pid = None
        self.generation = 0
        self.started_at = 0.0
        self.failures = 0
        self.respawn_at = None
        self.expected_exit = False


class Supervisor:
    """Run N workers over one listen address; restart and roll them.

    Args:
        template: the :class:`~repro.runtime.service.ServiceConfig`
            shared by every slot (the supervisor fills in slot,
            generation, fds, and the resolved port).  Its ``idl_path``
            is the operator-visible IDL file: ``rollout()`` re-reads
            it; the running generation is a content-hashed copy, so
            editing the file never changes what live workers compiled.
            With a ``profile_path``, workers profile payload shapes and
            the merged snapshot lands there at :meth:`stop`.
        workers: fleet size.
        handles: the template's :func:`~repro.runtime.service
            .compile_handles`, when the caller already compiled them;
            otherwise :meth:`start` does — the one parent-side compile
            (fail fast, learn the protocol), so a fleet start is
            N + 1 compiles.
        restart_backoff: base seconds before restarting a crashed
            worker; doubles per consecutive failure.
        backoff_cap: upper bound on the restart delay.
        stable_after: uptime after which a slot's failure count resets.
        ready_timeout: seconds to wait for a spawned worker to accept.
        report: callable for operator-facing lines (default: print).
        force_inherited_listener: use the inherited-fd fallback even
            where ``SO_REUSEPORT`` exists (exercised by tests).
    """

    def __init__(self, template, workers, *, handles=None,
                 restart_backoff=0.5, backoff_cap=8.0, stable_after=5.0,
                 ready_timeout=30.0, report=None,
                 force_inherited_listener=False):
        template.validate(workers)
        self.template = template
        self.workers = workers
        self.handles = handles
        self.idl_path = template.idl_path
        self.restart_backoff = restart_backoff
        self.backoff_cap = backoff_cap
        self.stable_after = stable_after
        self.ready_timeout = ready_timeout
        self._report = report or (lambda line: print(line, flush=True))
        self._force_inherited = force_inherited_listener
        self.host = template.host
        self.port = template.port
        self.generation = 0
        self.backend_name = template.backend
        self.interface_name = None
        self.restart_log = []  # (monotonic, slot, exit_code, delay)
        self._handles = []
        self._lock = threading.RLock()
        self._stop_event = threading.Event()
        self._rollout_requested = threading.Event()
        self._stopping = False
        self._monitor_thread = None
        self._placeholder = None
        self._listener = None
        self._listen_fd = None
        self._workdir = None
        self._profile_dir = None
        self._spawned = 0
        self._current_text = None
        self._generation_path = None
        self.registry = MetricsRegistry()
        self._restarts = self.registry.counter(
            "flick_supervisor_restarts_total",
            "Workers restarted after an unexpected exit", ("slot",))
        self._rollouts = self.registry.counter(
            "flick_supervisor_rollouts_total",
            "Schema rollouts by outcome", ("outcome",))
        self._worker_up = self.registry.gauge(
            "flick_supervisor_worker_up",
            "1 while the slot's worker process is running", ("slot",))
        self._gen_gauge = self.registry.gauge(
            "flick_supervisor_generation",
            "Schema generation currently serving")
        self._workers_gauge = self.registry.gauge(
            "flick_supervisor_workers", "Configured fleet size")

    # -- lifecycle ------------------------------------------------------

    def start(self):
        """Resolve the address, validate the schema, spawn the fleet."""
        with open(self.idl_path) as handle:
            self._current_text = handle.read()
        # Fail here, once, on what would fail in every worker: the
        # schema (the one parent-side compile).
        if self.handles is None:
            self.handles = compile_handles(self.template)
        stubs = self.handles[0].stubs
        self.backend_name = stubs.backend_name
        self.interface_name = stubs.interface_name
        self._workdir = tempfile.mkdtemp(prefix="flick-supervisor-")
        if self.template.profile_path:
            self._profile_dir = os.path.join(self._workdir, "profiles")
            os.makedirs(self._profile_dir, exist_ok=True)
        self._generation_path = self._write_generation(
            self._current_text)
        self._setup_listen()
        self._workers_gauge.set(self.workers)
        self._gen_gauge.set(0)
        with self._lock:
            for slot in range(self.workers):
                handle = _WorkerHandle(slot)
                self._handles.append(handle)
                self._spawn(handle, self.generation)
        self._wait_all_ready()
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="flick-supervisor", daemon=True)
        self._monitor_thread.start()
        return self

    def _write_generation(self, text):
        """A content-hashed side-by-side copy of one schema version."""
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
        suffix = os.path.splitext(self.idl_path)[1] or ".idl"
        path = os.path.join(self._workdir, "schema-%s%s"
                            % (digest, suffix))
        if not os.path.exists(path):
            with open(path, "w") as handle:
                handle.write(text)
        return path

    def _setup_listen(self):
        """Pin the concrete port; pick the sharing strategy."""
        use_reuseport = (hasattr(socket, "SO_REUSEPORT")
                         and not self._force_inherited)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if use_reuseport:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.host, self.port))
            self.port = sock.getsockname()[1]
            if use_reuseport:
                # Bound but never listening: holds the port (and the
                # reuseport group) across worker restarts without
                # receiving connections itself.
                self._placeholder = sock
            else:
                sock.listen(128)
                self._listener = sock
                self._listen_fd = sock.fileno()
        except OSError:
            sock.close()
            raise

    def _spawn(self, handle, generation, generation_path=None):
        parent_sock, child_sock = socket.socketpair()
        sys_paths = list(self.template.sys_paths)
        if not sys_paths:
            sys_paths = [os.getcwd()]
        profile_path = None
        if self._profile_dir is not None:
            # One file per spawn, not per slot: a slot's successive
            # workers each leave a snapshot and all of them merge.
            self._spawned += 1
            profile_path = os.path.join(
                self._profile_dir, "profile.%d.json" % self._spawned)
        config = self.template.but(
            slot=handle.slot, generation=generation,
            idl_path=generation_path or self._generation_path,
            host=self.host, port=self.port, listen_fd=self._listen_fd,
            control_fd=child_sock.fileno(), sys_paths=sys_paths,
            aio=True, stats=True, metrics_port=None,
            profile_path=profile_path)
        config_path = os.path.join(
            self._workdir, "worker-%d.json" % handle.slot)
        documents.save(config, config_path)
        src_path = os.path.dirname(os.path.dirname(os.path.abspath(
            __import__("repro").__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_path] + ([env["PYTHONPATH"]]
                          if env.get("PYTHONPATH") else []))
        pass_fds = [child_sock.fileno()]
        if self._listen_fd is not None:
            pass_fds.append(self._listen_fd)
        handle.process = subprocess.Popen(
            [sys.executable, "-m", "repro.runtime.supervisor.worker",
             config_path],
            pass_fds=pass_fds, env=env)
        child_sock.close()
        handle.control = ControlClient(parent_sock)
        handle.pid = handle.process.pid
        handle.generation = generation
        handle.started_at = time.monotonic()
        handle.respawn_at = None
        handle.expected_exit = False
        self._worker_up.labels(str(handle.slot)).set(1)

    def _wait_ready(self, handle, timeout=None):
        deadline = time.monotonic() + (timeout or self.ready_timeout)
        while time.monotonic() < deadline:
            code = handle.process.poll()
            if code is not None:
                raise FlickError(
                    "worker slot=%d exited with code %s during startup"
                    % (handle.slot, code))
            try:
                status = handle.control.status(timeout=1.0)
            except TransportError:
                time.sleep(0.05)
                continue
            if status.accepting:
                return
            time.sleep(0.05)
        raise FlickError(
            "worker slot=%d did not become ready within %.1fs"
            % (handle.slot, timeout or self.ready_timeout))

    def _wait_all_ready(self):
        for handle in self._handles:
            self._wait_ready(handle)

    # -- crash supervision ---------------------------------------------

    def _monitor(self):
        while not self._stop_event.wait(0.1):
            if self._rollout_requested.is_set():
                self._rollout_requested.clear()
                try:
                    self.rollout()
                except Exception as error:
                    self._report("schema rollout failed: %s" % error)
            with self._lock:
                if not self._stopping:
                    self._reap_and_respawn()

    def _reap_and_respawn(self):
        now = time.monotonic()
        for handle in self._handles:
            if handle.process is None:
                if handle.respawn_at is not None \
                        and now >= handle.respawn_at:
                    self._spawn(handle, self.generation)
                    self._report(
                        "worker slot=%d restarted (pid %d, attempt %d)"
                        % (handle.slot, handle.pid, handle.failures))
                continue
            code = handle.process.poll()
            if code is None:
                if handle.failures and \
                        now - handle.started_at > self.stable_after:
                    handle.failures = 0
                continue
            handle.control.close()
            self._worker_up.labels(str(handle.slot)).set(0)
            if handle.expected_exit:
                handle.process = None
                continue
            handle.failures += 1
            delay = min(
                self.restart_backoff * (2 ** (handle.failures - 1)),
                self.backoff_cap)
            self._restarts.labels(str(handle.slot)).inc()
            self.restart_log.append((now, handle.slot, code, delay))
            handle.process = None
            handle.respawn_at = now + delay
            self._report(
                "worker slot=%d pid=%s exited with code %s;"
                " restarting in %.2fs"
                % (handle.slot, handle.pid, code, delay))

    # -- schema rollout -------------------------------------------------

    def request_rollout(self):
        """Schedule a rollout on the monitor thread (the SIGHUP path)."""
        self._rollout_requested.set()

    def rollout(self):
        """Re-read the IDL, gate on the compat verdict, roll the fleet.

        Returns ``{"outcome", "verdict", "report"}`` where outcome is
        ``rolled`` (every worker now serves the new generation),
        ``refused`` (BREAKING — nothing changed), or ``failed`` (a
        replacement worker never became ready; its slot was respawned
        on the old generation and remaining slots were left alone).
        """
        from repro.compat import diff_texts
        from repro.compat.report import diff_exit_code, diff_report_text

        with self._lock:
            with open(self.idl_path) as handle:
                new_text = handle.read()
            old_label = "generation-%d(running)" % self.generation
            try:
                diffs = diff_texts(
                    self._current_text, new_text, self.template.lang,
                    interface=self.template.interface,
                    protocols=(self.backend_name,),
                    old_name=old_label, new_name=self.idl_path)
            except FlickError as error:
                self._rollouts.labels("refused").inc()
                report = "new schema does not compile: %s" % error
                self._report("schema rollout refused: %s" % report)
                return {"outcome": "refused", "verdict": "ERROR",
                        "report": report}
            code = diff_exit_code(diffs)
            verdict = _VERDICTS[code]
            report = diff_report_text(diffs, old_label, self.idl_path)
            if code >= 2:
                self._rollouts.labels("refused").inc()
                self._report(
                    "schema rollout refused (BREAKING); the running"
                    " generation keeps serving:\n%s" % report)
                return {"outcome": "refused", "verdict": verdict,
                        "report": report}
            new_generation = self.generation + 1
            generation_path = self._write_generation(new_text)
            self._report(
                "schema rollout: %s -> generation %d (%s); rolling %d"
                " worker(s)" % (self.idl_path, new_generation, verdict,
                                len(self._handles)))
            for handle in self._handles:
                if not self._replace_worker(
                        handle, generation_path, new_generation):
                    self._rollouts.labels("failed").inc()
                    self._report(
                        "schema rollout failed at slot %d; slot"
                        " respawned on generation %d, remaining slots"
                        " untouched" % (handle.slot, self.generation))
                    return {"outcome": "failed", "verdict": verdict,
                            "report": report}
            self.generation = new_generation
            self._current_text = new_text
            self._generation_path = generation_path
            self._gen_gauge.set(new_generation)
            self._rollouts.labels("rolled").inc()
            self._report("schema rollout complete: generation %d (%s)"
                         % (new_generation, verdict))
            return {"outcome": "rolled", "verdict": verdict,
                    "report": report}

    def _replace_worker(self, handle, generation_path, generation):
        """Drain one worker, spawn its successor, wait for readiness.

        Returns False when the successor never became ready (the slot
        is respawned on the current generation instead).
        """
        process = handle.process
        handle.expected_exit = True
        if process is not None:
            try:
                handle.control.drain(
                    timeout=self.template.drain_timeout + 2.0)
            except TransportError:
                pass  # already dead; the wait below sorts it out
            try:
                process.wait(timeout=self.template.drain_timeout + 5.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        handle.control.close()
        self._worker_up.labels(str(handle.slot)).set(0)
        handle.process = None
        try:
            self._spawn(handle, generation, generation_path)
            self._wait_ready(handle)
            return True
        except FlickError as error:
            self._report("replacement worker slot=%d failed: %s"
                         % (handle.slot, error))
            if handle.process is not None:
                handle.process.kill()
                handle.process.wait()
                handle.process = None
            self._spawn(handle, self.generation)
            try:
                self._wait_ready(handle)
            except FlickError:
                pass  # the monitor keeps restarting it
            return False

    # -- aggregated views -----------------------------------------------

    def _live_controls(self):
        with self._lock:
            return [(handle.slot, handle.control)
                    for handle in self._handles
                    if handle.process is not None
                    and handle.control is not None
                    and not handle.control.closed]

    def metrics_text(self):
        """One exposition: supervisor metrics + summed worker metrics."""
        texts = [self.registry.render_prometheus()]
        for _slot, control in self._live_controls():
            try:
                texts.append(control.metrics_text(timeout=2.0))
            except TransportError:
                continue
        return merge_prometheus(texts)

    def profile_json(self):
        """Workers' live profile snapshots merged, or None."""
        merged = None
        for _slot, control in self._live_controls():
            try:
                snapshot = control.profile_snapshot(timeout=2.0)
                if snapshot is None:
                    continue
                if merged is not None:
                    # Into a copy: merge() works in place, and a worker
                    # on another build (other bucket bounds) must leave
                    # no half of its snapshot behind when it is skipped.
                    snapshot = copy.deepcopy(merged).merge(snapshot)
            except (TransportError, ValueError):
                continue
            merged = snapshot
        return None if merged is None else documents.write(merged)

    def status(self):
        """Per-slot status dicts (unreachable slots report alive=False)."""
        rows = []
        with self._lock:
            handles = list(self._handles)
        for handle in handles:
            row = {"slot": handle.slot, "pid": handle.pid,
                   "generation": handle.generation,
                   "alive": handle.process is not None
                   and handle.process.poll() is None}
            if row["alive"] and not handle.control.closed:
                try:
                    reply = documents.write(
                        handle.control.status(timeout=1.0))
                    row.update((key, value) for key, value in reply.items()
                               if value is not None)
                except TransportError:
                    row["alive"] = False
            rows.append(row)
        return rows

    def healthy(self):
        """Liveness: the supervisor itself is running."""
        return (not self._stopping
                and self._monitor_thread is not None
                and self._monitor_thread.is_alive())

    def ready(self):
        """Readiness: every slot is accepting and not draining."""
        rows = self.status()
        if len(rows) < self.workers:
            return False
        return all(row["alive"] and row.get("accepting")
                   and not row.get("draining") for row in rows)

    # -- shutdown -------------------------------------------------------

    def stop(self):
        """SIGTERM the fleet, merge profiles, clean up."""
        self._stopping = True
        self._stop_event.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=10.0)
            self._monitor_thread = None
        with self._lock:
            for handle in self._handles:
                if handle.process is not None \
                        and handle.process.poll() is None:
                    handle.expected_exit = True
                    handle.process.send_signal(signal.SIGTERM)
            for handle in self._handles:
                if handle.process is None:
                    continue
                try:
                    handle.process.wait(
                        timeout=self.template.drain_timeout + 5.0)
                except subprocess.TimeoutExpired:
                    handle.process.kill()
                    handle.process.wait()
                if handle.control is not None:
                    handle.control.close()
                self._worker_up.labels(str(handle.slot)).set(0)
                handle.process = None
        merged_profile = self._merge_profiles()
        for sock in (self._placeholder, self._listener):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._placeholder = self._listener = None
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)
            self._workdir = None
        return merged_profile

    def _merge_profiles(self):
        """Fold every worker's ``profile.<n>.json`` into one file."""
        if self._profile_dir is None:
            return None
        merged = None
        paths = sorted(glob.glob(
            os.path.join(self._profile_dir, "profile.*.json")))
        for path in paths:
            try:
                snapshot = documents.load(
                    ProfileSnapshot, path, "profile snapshot")
            except (OSError, ValueError):
                continue
            if merged is None:
                merged = snapshot
            else:
                merged.merge(snapshot)
        if merged is not None:
            documents.save(merged, self.template.profile_path)
        return merged

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback):
        self.stop()
        return False
