"""The tracing half of ``repro.obs``: spans, one tracer, JSONL export.

Design constraints, in order:

* **zero cost when disabled** — tracing is off unless :func:`configure`
  has installed a tracer; every instrumentation point goes through
  :func:`span`, which reads one module global and returns a shared no-op
  context manager when tracing is off;
* **monotonic clocks** — span durations come from ``perf_counter``;
  the wall-clock start (``time.time``) is recorded once per span only so
  exported traces can be lined up with logs;
* **explicit cross-thread parentage** — the current span rides a
  ``contextvars.ContextVar``, which follows ``async``/``await`` and
  plain calls for free; code that hops threads or event loops (the
  client transport's sync facade, the aio server's dispatch workers)
  captures :func:`current_span` / ``contextvars.copy_context()`` and
  re-establishes it on the far side.

A span's identity is ``(trace_id, span_id)`` as lowercase hex strings
(16 and 8 bytes of entropy respectively — the OpenTelemetry widths, so
the wire encoding in :mod:`repro.obs.propagation` is fixed-size).
Anything with ``trace_id``/``span_id`` attributes can act as a parent,
including the :class:`~repro.obs.propagation.WireTraceContext` extracted
from an incoming message.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
import weakref

from repro.core import codecs
from repro.core.loader import on_bound

_tracer = None

_current = contextvars.ContextVar("flick_current_span", default=None)


def new_trace_id():
    return os.urandom(16).hex()


def new_span_id():
    return os.urandom(8).hex()


def active():
    """The installed :class:`Tracer`, or None when tracing is disabled."""
    return _tracer


def current_span():
    """The span enclosing the caller, or None."""
    return _current.get()


def current_ids():
    """``(trace_id, span_id)`` of the enclosing span, or None.

    The exemplar hook: the payload-shape profiler stamps its slow-tail
    exemplars with these so a profile links back to the trace export.
    """
    span = _current.get()
    if span is None:
        return None
    return span.trace_id, span.span_id


def configure(exporter=None):
    """Install (and return) the process tracer; replaces any previous.

    Also swaps span wrappers into every module registered with
    :func:`instrument_stub_module`.
    """
    global _tracer
    previous, _tracer = _tracer, Tracer(exporter)
    if previous is not None:
        previous.close()
    codecs.switch("trace", _trace_layer)
    _swap(list(_proxies))
    return _tracer


def shutdown():
    """Disable tracing and flush/close the exporter.

    Removes the span wrappers from every instrumented stub module, so a
    traced process returns to zero overhead.
    """
    global _tracer
    previous, _tracer = _tracer, None
    codecs.switch("trace", None)
    _swap(list(_proxies))
    if previous is not None:
        previous.close()


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        return False

    def set(self, **_attrs):
        return self


NOOP = _NoopSpan()


def span(name, parent=None, **attrs):
    """A new span, or the shared no-op when tracing is disabled.

    With no explicit *parent* the span nests under :func:`current_span`;
    otherwise under *parent* (any object with ``trace_id``/``span_id``).
    Use as a context manager; the span exports when it closes.
    """
    tracer = _tracer
    if tracer is None:
        return NOOP
    return tracer.span(name, parent=parent, **attrs)


class Span:
    """One timed operation; a context manager that exports on exit."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs",
                 "start_wall", "duration_s", "error", "_start", "_token",
                 "_tracer")

    def __init__(self, tracer, name, trace_id, parent_id, attrs):
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self.start_wall = time.time()
        self.duration_s = None
        self.error = None
        self._start = time.perf_counter()
        self._token = None
        self._tracer = tracer

    def set(self, **attrs):
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        self._token = _current.set(self)
        return self

    def end(self):
        """Finish a span that was never entered — one that only serves
        as the explicit *parent* of others, possibly across threads."""
        self.__exit__(None, None, None)

    def __exit__(self, exc_type, exc_value, traceback):
        self.duration_s = time.perf_counter() - self._start
        if exc_type is not None:
            self.error = "%s: %s" % (exc_type.__name__, exc_value)
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        self._tracer._export(self)
        return False


class Tracer:
    """Creates and exports spans.  One per process, via :func:`configure`."""

    def __init__(self, exporter=None):
        self.exporter = exporter

    def span(self, name, parent=None, **attrs):
        if parent is None:
            parent = _current.get()
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = new_trace_id()
            parent_id = None
        return Span(self, name, trace_id, parent_id, attrs)

    def _export(self, finished_span):
        if self.exporter is not None:
            self.exporter.export(finished_span)

    def close(self):
        if self.exporter is not None:
            self.exporter.close()


class JsonlExporter:
    """Writes one JSON object per finished span to a file.

    Thread-safe; spans finish on servant threads, event loops, and the
    caller's thread alike.  :class:`list` targets are accepted for tests
    via :class:`CollectingExporter` instead.
    """

    def __init__(self, path):
        self.path = path
        self._lock = threading.Lock()
        self._handle = open(path, "a")

    def export(self, finished_span):
        record = {
            "trace_id": finished_span.trace_id,
            "span_id": finished_span.span_id,
            "parent_id": finished_span.parent_id,
            "name": finished_span.name,
            "start": finished_span.start_wall,
            "duration_s": finished_span.duration_s,
        }
        if finished_span.attrs:
            record["attrs"] = {
                key: _jsonable(value)
                for key, value in finished_span.attrs.items()
            }
        if finished_span.error:
            record["error"] = finished_span.error
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            if self._handle is not None:
                self._handle.write(line + "\n")

    def close(self):
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class CollectingExporter:
    """Keeps finished spans in memory; the test-suite exporter."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()

    def export(self, finished_span):
        with self._lock:
            self.spans.append(finished_span)

    def close(self):
        pass

    def by_name(self, name):
        with self._lock:
            return [s for s in self.spans if s.name == name]


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value).decode("latin-1")
    return str(value)


# ----------------------------------------------------------------------
# Generated-stub instrumentation
# ----------------------------------------------------------------------

#: Every ``*Client`` class of an instrumented module -> the operations
#: whose methods open ``call`` spans.  Weak: a class goes with its
#: module.
_proxies = weakref.WeakKeyDictionary()
_swapping = threading.Lock()


def _swap(classes):
    """Wrap the proxy methods of *classes* while a tracer is installed,
    else unwrap them.  ``*Client`` proxy methods are class attributes,
    not codec entries: only references bound before the swap (a
    captured bound method, say) keep what they saw."""
    with _swapping:
        on = _tracer is not None
        for cls in classes:
            for op in _proxies[cls]:
                method = getattr(cls, op)
                method = getattr(method, "__wrapped__", method)
                setattr(cls, op, _wrap_call(method, op) if on else method)


def instrument_stub_module(module):
    """Arrange span wrappers for a generated stub module's hot functions.

    Covers every codec entry of the module — marshal entries
    (``_m_req_<op>``, ``_m_rep_*_<op>``) as ``encode`` spans, unmarshal
    entries (``_u_req_<op>``, ``_u_rep_<op>``) as ``decode`` spans — as
    the ``trace`` layer of its :class:`repro.core.codecs.CodecSlots`,
    and the ``<op>`` methods of ``*Client`` proxy classes as ``call``
    spans with an ``op`` attribute, the client-side root span of each
    request.

    The wrappers are installed only while a tracer is configured:
    :func:`configure` turns them on, :func:`shutdown` off again, so an
    instrumented module is the uninstrumented one on the hot path while
    tracing is disabled.  Idempotent.
    """
    if not codecs.instrument(module, "trace"):
        return module
    operations = {slot.op for slot in codecs.of(module).entries()
                  if slot.form == "m_req"}

    def add_proxies(bound):
        classes = [value for name, value in bound.items()
                   if isinstance(value, type) and name.endswith("Client")]
        for cls in classes:
            _proxies[cls] = [op for op in operations
                             if callable(getattr(cls, op, None))]
        _swap(classes)

    # The proxy class of a module that has not made a call yet is not
    # compiled: it is wrapped when its section loads, not loaded to be
    # wrapped.
    on_bound(module, add_proxies)
    return module


def _trace_layer(slot, inner):
    span_name = slot.kind

    def wrapper(*args):
        tracer = _tracer
        if tracer is None:  # captured wrapper outliving shutdown()
            return inner(*args)
        with tracer.span(span_name):
            return inner(*args)

    wrapper.__name__ = slot.name
    wrapper.__wrapped__ = inner
    return wrapper


def _wrap_call(method, op):
    def wrapper(self, *args):
        tracer = _tracer
        if tracer is None:
            return method(self, *args)
        with tracer.span("call", op=op):
            return method(self, *args)

    wrapper.__name__ = method.__name__
    wrapper.__wrapped__ = method
    return wrapper
