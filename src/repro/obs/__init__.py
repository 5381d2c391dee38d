"""``repro.obs`` — shared observability: tracing, metrics, propagation.

Flick's thesis is that stub performance is measurable and attributable;
this package is where the measuring lives.  Three pieces:

* :mod:`repro.obs.trace` — low-overhead spans (``with obs.span("encode")``)
  with monotonic timing, contextvar nesting, JSONL export, and opt-in
  instrumentation of generated stub modules.  Zero cost while disabled.
* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  log-bucketed latency histograms with Prometheus text exposition; the
  generalization of the aio server's original ``ServerStats``.
* :mod:`repro.obs.propagation` — carries ``(trace id, span id)`` inside
  the protocols' own envelopes (a GIOP ServiceContext entry, an ONC RPC
  auth-opaque credential) so client and server spans join one trace
  while staying byte-compatible with uninstrumented peers.
* :mod:`repro.obs.profile` — the payload-shape profiler: sampled
  per-op message sizes, sequence/string length histograms, union-arm
  skew, gateway fused-path ratios, and trace exemplars, mergeable
  across workers and persisted as versioned JSON snapshots
  (``flick serve --profile`` → ``flick profile``).  Zero cost while
  disabled, like tracing.

Quick tour::

    from repro import obs

    obs.configure(obs.JsonlExporter("trace.jsonl"))   # tracing on
    obs.instrument_stub_module(module)                # stub-level spans
    with obs.span("warm-up", op="avg"):
        client.avg([1, 2, 3])
    obs.shutdown()                                    # flush + disable

    registry = obs.MetricsRegistry()
    errors = registry.counter("errors_total", "oops", ("op",))
    errors.labels("avg").inc()
    print(registry.render_prometheus())
"""

from repro.obs import profile
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    LatencyHistogram,
    MetricsRegistry,
    REGISTRY,
    parse_prometheus,
)
from repro.obs.profile import (
    OpProfile,
    ProfileSnapshot,
    ShapeHistogram,
)
from repro.obs.propagation import WireTraceContext, extract, inject
from repro.obs.trace import (
    CollectingExporter,
    JsonlExporter,
    Span,
    Tracer,
    configure,
    current_ids,
    current_span,
    instrument_stub_module,
    shutdown,
    span,
)
from repro.obs.http import MetricsHttpServer

__all__ = [
    "BUCKET_BOUNDS",
    "CollectingExporter",
    "JsonlExporter",
    "LatencyHistogram",
    "MetricsHttpServer",
    "MetricsRegistry",
    "OpProfile",
    "ProfileSnapshot",
    "REGISTRY",
    "ShapeHistogram",
    "Span",
    "Tracer",
    "WireTraceContext",
    "configure",
    "current_ids",
    "current_span",
    "extract",
    "inject",
    "instrument_stub_module",
    "parse_prometheus",
    "profile",
    "shutdown",
    "span",
]
