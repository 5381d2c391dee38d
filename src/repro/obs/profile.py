"""The payload-shape profiler: what do the messages actually look like?

Flick specializes marshal code to the *schema*; adaptive work (gateway
fusion planning) needs to specialize to the observed *workload*.  This
module records, per operation and direction (``request``/``reply``):

* message-size histograms (bytes on the wire per codec call),
* per-channel sequence/string/bytes length histograms, keyed by dotted
  channel paths (``entries[].name``) derived from the operation's PRES
  trees,
* union-arm and optional-presence skew, plus reply-arm (ok vs each
  exception) skew,
* encode/decode codec latency,
* fused vs re-encode path counts on gateways, and
* **trace exemplars**: the slowest sampled calls keep their
  ``(trace_id, span_id)`` from :mod:`repro.obs.trace` so a histogram's
  tail links back to concrete traces in the JSONL export.

Design constraints mirror :mod:`repro.obs.trace`:

* **zero cost when off** — instrumentation is the ``profile`` layer of
  the module's codec slots (:mod:`repro.core.codecs`):
  :func:`instrument_stub_module` registers a module, :func:`configure`
  turns the layer on, :func:`shutdown` turns it off.  Disabled mode
  runs the base generated functions, byte for byte.
* **bounded cost when on** — every wrapped call pays one integer
  increment and one modulo; only every *N*-th call (``sample=N``) is
  timed, sized, and shape-probed.  Probing itself samples at most three
  elements per array (:mod:`repro.mir.shape`).
* **mergeable** — profiles aggregate across workers:
  :meth:`OpProfile.merge` and :meth:`ProfileSnapshot.merge` are
  associative and commutative (exact dict-sums; exemplar merge is
  top-K-slowest under a total order), so any merge tree gives the same
  answer.

The slot places the profile layer outside the trace layer whatever
order the two were configured in, so sampled codec calls carry span
context for exemplars.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass, field
from typing import Literal, Optional

from repro import documents
from repro.core import codecs
from repro.obs import trace as _trace
from repro.obs.metrics import LatencyHistogram

#: Snapshot schema version; bump on incompatible change.
SNAPSHOT_VERSION = 1
SNAPSHOT_KIND = "flick-profile"

#: Distinct exact values a :class:`ShapeHistogram` tracks before new
#: values spill to power-of-two buckets.  Existing exact values keep
#: counting exactly — so workload *modes* (the handful of lengths a
#: real workload repeats) stay exact while long tails stay bounded.
MAX_EXACT = 64

#: Default exemplar reservoir size (slowest sampled calls kept).
DEFAULT_EXEMPLARS = 8

#: Default sampling rate: profile every 64th call.
DEFAULT_SAMPLE = 64

#: Bucket bounds for /metrics length and byte-size histograms.
LENGTH_BOUNDS = tuple(float(2 ** i) for i in range(17))
BYTE_BOUNDS = tuple(
    float(b) for b in
    (64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304)
)

_profiler = None


def active():
    """The installed :class:`Profiler`, or None when profiling is off."""
    return _profiler


def enabled():
    return _profiler is not None


def configure(sample=DEFAULT_SAMPLE, registry=None,
              exemplars=DEFAULT_EXEMPLARS):
    """Install (and return) the process profiler; replaces any previous.

    Turns the profile layer on in every module registered with
    :func:`instrument_stub_module`.  *registry* is an optional
    :class:`~repro.obs.metrics.MetricsRegistry` that receives the
    ``flick_profile_*`` families; *sample* profiles every N-th call.
    """
    global _profiler
    _profiler = Profiler(sample=sample, registry=registry,
                         exemplars=exemplars)
    codecs.switch("profile", _profiler.layer)
    return _profiler


def shutdown():
    """Disable profiling; remove the profile layer everywhere.

    Returns the final :class:`ProfileSnapshot` from the outgoing
    profiler (or None if profiling was already off) so callers can
    persist what was collected.
    """
    global _profiler
    previous, _profiler = _profiler, None
    codecs.switch("profile", None)
    if previous is None:
        return None
    return previous.snapshot()


def record_transcode(bridge, op, direction, fused, nbytes=None,
                     seconds=None):
    """Gateway hook: count a transcoded message on the fused or the
    re-encode path.  No-op (one global read) while profiling is off."""
    profiler = _profiler
    if profiler is None:
        return
    profiler.record_transcode(bridge, op, direction, fused,
                              nbytes=nbytes, seconds=seconds)


# ----------------------------------------------------------------------
# The snapshot records: their fields are the snapshot file's JSON, read
# and written by repro.documents (every wrong shape names its field)
# ----------------------------------------------------------------------


def _add(counts, more):
    """Sum the ``{label: count}`` table *more* into *counts*."""
    for label, count in more.items():
        counts[label] = counts.get(label, 0) + count


def skew(counts):
    """``(top_label, top_fraction)`` of a ``{label: count}`` table: how
    lopsided union arms, optional presence or gateway paths are."""
    total = sum(counts.values())
    if not total:
        return None, 0.0
    label, count = max(counts.items(), key=lambda item: (item[1], item[0]))
    return label, count / total


@dataclass(slots=True)
class ShapeHistogram:
    """Non-negative integer histogram with exact workload modes.

    Observations are small integers (lengths, byte counts).  The first
    :data:`MAX_EXACT` distinct values count exactly in :attr:`exact`;
    later distinct values spill into power-of-two buckets
    (:attr:`overflow`, keyed by ``n.bit_length()``).  Real workloads
    repeat a handful of shapes, so the modes the report cares about stay
    exact; adversarial workloads stay O(MAX_EXACT + 64) memory.

    ``merge`` is a plain dict-sum of both tables — never re-capped — so
    it is exactly associative and commutative.
    """

    kind: str = ""
    exact: dict[int, int] = field(default_factory=dict)
    overflow: dict[int, int] = field(default_factory=dict)
    total: int = 0
    sum: int = 0
    min: Optional[int] = None
    max: int = 0

    def observe(self, n):
        exact = self.exact
        if n in exact:
            exact[n] += 1
        elif len(exact) < MAX_EXACT:
            exact[n] = 1
        else:
            bucket = n.bit_length()
            self.overflow[bucket] = self.overflow.get(bucket, 0) + 1
        self.total += 1
        self.sum += n
        if n > self.max:
            self.max = n
        if self.min is None or n < self.min:
            self.min = n

    @property
    def mean(self):
        return self.sum / self.total if self.total else 0.0

    def modes(self, k=3):
        """The *k* most frequent exact values: ``[(value, count)]``."""
        ranked = sorted(self.exact.items(),
                        key=lambda item: (-item[1], item[0]))
        return ranked[:k]

    def percentile(self, q):
        """Approximate percentile; overflow buckets report their upper
        bound (``2**bucket - 1``)."""
        if not self.total:
            return 0
        points = sorted(
            list(self.exact.items())
            + [((1 << bucket) - 1, count)
               for bucket, count in self.overflow.items()]
        )
        rank = max(1, int(self.total * q / 100.0 + 0.5))
        seen = 0
        for value, count in points:
            seen += count
            if seen >= rank:
                return value
        return points[-1][0]

    def merge(self, other):
        _add(self.exact, other.exact)
        _add(self.overflow, other.overflow)
        self.total += other.total
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if not self.kind:
            self.kind = other.kind
        return self


@dataclass(slots=True, order=True)
class Exemplar:
    """One slow sampled call and the trace it belongs to.  Ordered by
    duration, ids breaking ties, so the top-K merge is associative."""

    duration_s: float
    trace_id: str = ""
    span_id: str = ""
    bytes: int = 0


# ----------------------------------------------------------------------
# Per-operation profile
# ----------------------------------------------------------------------

#: Channel path under which reply-arm choice (ok vs each exception) is
#: counted; distinct from any IDL-derived path (no IDL identifier can
#: contain ``<``).
REPLY_ARM = "<reply>"


@dataclass(slots=True)
class OpProfile:
    """Everything observed for one ``(operation, direction)`` pair.

    Acts as the sink for :func:`repro.mir.shape.probe_args` (it has the
    ``length``/``arm`` methods).  ``calls`` counts *every* codec call
    (the cheap unsampled increment); everything else describes only the
    ``sampled`` subset — scale by ``calls / sampled`` for absolute
    rates.  ``codec`` maps ``encode``/``decode``/``transcode`` to
    latency, ``channels`` a path to its lengths, ``arms`` a path to
    ``{arm: count}``, ``paths`` a gateway's ``fused``/``re-encode``
    to counts; ``exemplars`` are the slowest sampled calls, slowest
    first.
    """

    op: str
    direction: str
    calls: int = 0
    sampled: int = 0
    size: ShapeHistogram = field(
        default_factory=lambda: ShapeHistogram(kind="bytes"))
    codec: dict[str, LatencyHistogram] = field(default_factory=dict)
    channels: dict[str, ShapeHistogram] = field(default_factory=dict)
    arms: dict[str, dict[str, int]] = field(default_factory=dict)
    paths: dict[str, int] = field(default_factory=dict)
    exemplars: list[Exemplar] = field(default_factory=list)
    exemplar_cap: int = DEFAULT_EXEMPLARS
    #: ``calls`` already added to the registry's counter.
    flushed: int = field(default=0, init=False)

    def __post_init__(self):
        self.exemplars.sort(reverse=True)

    # -- sink protocol (repro.mir.shape) --------------------------------

    def length(self, path, kind, n):
        hist = self.channels.get(path)
        if hist is None:
            hist = self.channels[path] = ShapeHistogram(kind=kind)
        hist.observe(n)

    def arm(self, path, label):
        counts = self.arms.setdefault(path, {})
        counts[label] = counts.get(label, 0) + 1

    # -- recording -------------------------------------------------------

    def codec_hist(self, kind):
        hist = self.codec.get(kind)
        if hist is None:
            hist = self.codec[kind] = LatencyHistogram.empty()
        return hist

    def note_exemplar(self, duration_s, trace_id, span_id, nbytes):
        self.exemplars.append(Exemplar(duration_s, trace_id, span_id,
                                       nbytes))
        self.exemplars.sort(reverse=True)
        del self.exemplars[self.exemplar_cap:]

    @property
    def fused_fraction(self):
        """Fraction of gateway messages that took the fused copy path
        (None when this profile never saw a gateway)."""
        total = sum(self.paths.values())
        if not total:
            return None
        return self.paths.get("fused", 0) / total

    def merge(self, other):
        if (other.op, other.direction) != (self.op, self.direction):
            raise ValueError(
                "cannot merge profile for %s/%s into %s/%s"
                % (other.op, other.direction, self.op, self.direction)
            )
        self.calls += other.calls
        self.sampled += other.sampled
        self.size.merge(other.size)
        for kind, hist in other.codec.items():
            self.codec_hist(kind).merge(hist)
        for path, hist in other.channels.items():
            mine = self.channels.get(path)
            if mine is None:
                mine = self.channels[path] = ShapeHistogram(
                    kind=hist.kind
                )
            mine.merge(hist)
        for path, counts in other.arms.items():
            _add(self.arms.setdefault(path, {}), counts)
        _add(self.paths, other.paths)
        self.exemplar_cap = max(self.exemplar_cap, other.exemplar_cap)
        self.exemplars = sorted(self.exemplars + other.exemplars,
                                reverse=True)[:self.exemplar_cap]
        return self

    # -- the flick profile report ---------------------------------------

    def summary(self):
        """Derived, report-ready numbers for this profile."""
        size = self.size
        summary = {
            "calls": self.calls,
            "sampled": self.sampled,
            "size": {"mean": round(size.mean, 1), "p50": size.percentile(50),
                     "p99": size.percentile(99), "max": size.max},
            "channels": {
                path: {"kind": hist.kind,
                       "modes": [list(mode) for mode in hist.modes()],
                       "p50": hist.percentile(50), "p99": hist.percentile(99)}
                for path, hist in sorted(self.channels.items())},
            "arms": {},
        }
        for path, counts in sorted(self.arms.items()):
            top, fraction = skew(counts)
            summary["arms"][path] = {"counts": dict(sorted(counts.items())),
                                     "top": top, "skew": round(fraction, 4)}
        if self.fused_fraction is not None:
            summary["fused_fraction"] = round(self.fused_fraction, 4)
        for kind, hist in sorted(self.codec.items()):
            summary.setdefault("codec", {})[kind] = {
                "p50_us": round(hist.percentile(50) * 1e6, 1),
                "p99_us": round(hist.percentile(99) * 1e6, 1),
            }
        if self.exemplars:
            summary["exemplars"] = documents.write(self.exemplars)
        return summary

    def report_lines(self):
        """This direction's lines of the ``flick profile`` text report."""
        summary = self.summary()
        size = summary["size"]
        lines = ["  %-8s calls=%d sampled=%d  bytes p50=%d p99=%d max=%d"
                 % (self.direction, self.calls, self.sampled, size["p50"],
                    size["p99"], size["max"])]
        for path, channel in summary["channels"].items():
            modes = ", ".join("%dx%d" % (value, count)
                              for value, count in channel["modes"])
            lines.append("    %-24s %-5s p50=%-6d p99=%-6d modes: %s"
                         % (path, channel["kind"], channel["p50"],
                            channel["p99"], modes))
        for path, arm in summary["arms"].items():
            lines.append("    %-24s arm   top=%s (%.0f%%)  %s"
                         % (path, arm["top"], 100.0 * arm["skew"],
                            " ".join("%s:%d" % item
                                     for item in arm["counts"].items())))
        if "fused_fraction" in summary:
            lines.append("    %-24s %.1f%% of messages fused"
                         % ("gateway", 100.0 * summary["fused_fraction"]))
        for exemplar in self.exemplars[:3]:
            lines.append("    slow exemplar: %.3f ms, %d bytes, trace=%s"
                         % (1e3 * exemplar.duration_s, exemplar.bytes,
                            exemplar.trace_id))
        return lines


def _op_key(profile):
    return profile.op, profile.direction


@dataclass
class ProfileSnapshot:
    """A versioned, mergeable set of op profiles, ``ops`` sorted by
    ``(op, direction)``; its fields are the snapshot file's JSON."""

    kind: Literal[SNAPSHOT_KIND] = SNAPSHOT_KIND
    version: Literal[SNAPSHOT_VERSION] = SNAPSHOT_VERSION
    sample: int = DEFAULT_SAMPLE
    ops: list[OpProfile] = field(default_factory=list)

    def __post_init__(self):
        self.ops.sort(key=_op_key)

    def _by_key(self):
        return {_op_key(profile): profile for profile in self.ops}

    def for_op(self, op):
        """This op's profiles in direction order: request then reply."""
        found = self._by_key()
        return [found[(op, direction)] for direction in ("request", "reply")
                if (op, direction) in found]

    def op_names(self):
        return sorted({profile.op for profile in self.ops})

    def merge(self, other):
        mine = self._by_key()
        for theirs in other.ops:
            found = mine.get(_op_key(theirs))
            if found is None:
                found = mine[_op_key(theirs)] = copy.deepcopy(theirs)
                self.ops.append(found)
            else:
                found.merge(theirs)
        self.__post_init__()
        if other.sample != self.sample:
            # Counts stay correct; scaled-rate estimates become
            # per-snapshot.  Keep the coarser rate as the honest bound.
            self.sample = max(self.sample, other.sample)
        return self

    def report_json(self, names):
        """``flick profile --json``: each of the ops *names*, every
        direction's record and its :meth:`OpProfile.summary`."""
        return {"version": SNAPSHOT_VERSION, "sample": self.sample, "ops": {
            op: {"directions": {profile.direction: documents.write(profile)
                                for profile in self.for_op(op)},
                 "summary": {profile.direction: profile.summary()
                             for profile in self.for_op(op)}}
            for op in names}}

    def report_text(self, names):
        """``flick profile``'s text for the ops *names*."""
        lines = []
        for op in names:
            lines.append("%s:" % op)
            for profile in self.for_op(op):
                lines += profile.report_lines()
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The profiler
# ----------------------------------------------------------------------


class Profiler:
    """Owns the live profiles and the sampling policy.

    One per process, installed by :func:`configure`.  The sampled-path
    recording is guarded against *any* exception: a profiling bug must
    degrade to "no data", never to a failed RPC.
    """

    def __init__(self, sample=DEFAULT_SAMPLE, registry=None,
                 exemplars=DEFAULT_EXEMPLARS):
        self.sample = max(1, int(sample))
        self.registry = registry
        self.exemplar_cap = exemplars
        self._profiles = {}
        self._lock = threading.Lock()
        self._families = None
        if registry is not None:
            self._families = {
                "calls": registry.counter(
                    "flick_profile_calls_total",
                    "Codec calls seen by the profiler",
                    ("op", "direction"),
                ),
                "sampled": registry.counter(
                    "flick_profile_sampled_total",
                    "Codec calls fully profiled",
                    ("op", "direction"),
                ),
                "bytes": registry.histogram(
                    "flick_profile_message_bytes",
                    "Message body size per sampled codec call",
                    ("op", "direction"),
                    bounds=BYTE_BOUNDS,
                ),
                "codec": registry.histogram(
                    "flick_profile_codec_seconds",
                    "Sampled codec call latency",
                    ("op", "kind"),
                ),
                "length": registry.histogram(
                    "flick_profile_channel_length",
                    "Sequence/string lengths per channel path",
                    ("op", "direction", "channel"),
                    bounds=LENGTH_BOUNDS,
                ),
                "arm": registry.counter(
                    "flick_profile_arm_total",
                    "Union-arm / optional / reply-arm choices",
                    ("op", "direction", "channel", "arm"),
                ),
            }
            registry.gauge(
                "flick_profile_sample_rate",
                "Profile every N-th call (scale sampled families by"
                " this to estimate absolute rates)",
            ).set(self.sample)

    def profile(self, op, direction):
        key = (op, direction)
        found = self._profiles.get(key)
        if found is None:
            with self._lock:
                found = self._profiles.get(key)
                if found is None:
                    found = self._profiles[key] = OpProfile(
                        op, direction, exemplar_cap=self.exemplar_cap
                    )
        return found

    def snapshot(self):
        """A detached, serializable copy of everything collected."""
        with self._lock:
            profiles = list(self._profiles.values())
        return ProfileSnapshot(sample=self.sample, ops=[
            copy.deepcopy(profile) for profile in profiles])

    # -- recording -------------------------------------------------------

    def _record(self, profile, kind, probe, duration_s, nbytes, values,
                reply_arm):
        try:
            profile.sampled += 1
            profile.size.observe(nbytes)
            profile.codec_hist(kind).observe(duration_s)
            if reply_arm is not None:
                profile.arm(REPLY_ARM, reply_arm)
            if values is not None and probe is not None:
                from repro.mir import shape

                sink = profile
                if self._families is not None:
                    sink = _MetricsSink(profile, self._families,
                                        profile.op, profile.direction)
                shape.probe_args(*probe, values, sink)
            ids = _trace.current_ids()
            if ids is not None:
                profile.note_exemplar(duration_s, ids[0], ids[1],
                                      nbytes)
            if self._families is not None:
                labels = (profile.op, profile.direction)
                self._families["sampled"].labels(*labels).inc()
                delta = profile.calls - profile.flushed
                profile.flushed = profile.calls
                self._families["calls"].labels(*labels).inc(delta)
                self._families["bytes"].labels(*labels).observe(nbytes)
                self._families["codec"].labels(
                    profile.op, kind
                ).observe(duration_s)
                if reply_arm is not None:
                    self._families["arm"].labels(
                        profile.op, profile.direction, REPLY_ARM,
                        reply_arm
                    ).inc()
        except Exception:
            # Profiling must never break a serving path.
            pass

    def record_transcode(self, bridge, op, direction, fused,
                         nbytes=None, seconds=None):
        # The registry-side flick_profile_transcode_total family is fed
        # by the gateway itself (it counts even when profiling is off);
        # this records the OpProfile view: path ratios always, sizes
        # and latency on the sampled subset.
        path = "fused" if fused else "re-encode"
        profile = self.profile(op, direction)
        profile.calls += 1
        profile.paths[path] = profile.paths.get(path, 0) + 1
        if profile.calls % self.sample:
            return
        try:
            profile.sampled += 1
            if nbytes is not None:
                profile.size.observe(nbytes)
                if self._families is not None:
                    self._families["bytes"].labels(
                        op, direction
                    ).observe(nbytes)
            if seconds is not None:
                profile.codec_hist("transcode").observe(seconds)
            ids = _trace.current_ids()
            if ids is not None and seconds is not None:
                profile.note_exemplar(seconds, ids[0], ids[1],
                                      nbytes or 0)
            if self._families is not None:
                labels = (op, direction)
                self._families["sampled"].labels(*labels).inc()
                delta = profile.calls - profile.flushed
                profile.flushed = profile.calls
                self._families["calls"].labels(*labels).inc(delta)
        except Exception:
            pass

    # -- the layer -------------------------------------------------------

    def layer(self, slot, inner):
        """The ``profile`` layer over one codec entry: *inner* wrapped to
        count every call and to time, size and shape-probe every
        ``sample``-th.  Encoders are sized by what they append to the
        buffer, a request decoder by the end it returns, a reply decoder
        by the rest of the frame; a reply's arm is the encoder's, or
        what the decoder returned or raised."""
        profile = self.profile(slot.op, slot.direction)
        probe, raises = _channel(slot)
        channel = probe and probe[0]
        form, kind = slot.form, slot.kind
        arm = "ok" if form == "u_rep" else slot.arm
        encodes = kind == "encode"
        sample = self.sample
        owner = self
        perf_counter = time.perf_counter

        def wrapper(*args):
            profile.calls += 1
            if _profiler is not owner or profile.calls % sample:
                return inner(*args)
            before = args[0].length if encodes else args[1]
            start = perf_counter()
            try:
                result = inner(*args)
            except Exception as exc:
                if form == "u_rep":
                    name = type(exc).__name__
                    owner._record(profile, kind, probe,
                                  perf_counter() - start,
                                  len(args[0]) - before, None,
                                  raises.get(name, name))
                raise
            duration = perf_counter() - start
            if encodes:
                size, values = args[0].length - before, args[2:]
            elif form == "u_req":
                size, values = result[1] - before, result[0]
            else:
                size = len(args[0]) - before
                values = _reply_values(channel, result)
            owner._record(profile, kind, probe, duration, size, values,
                          arm)
            return result

        wrapper.__name__ = getattr(inner, "__name__", slot.name)
        wrapper.__wrapped__ = inner
        return wrapper


def _channel(slot):
    """``((channel, PRES_C), {exception class name: reply arm})`` for a
    codec entry, from the PRES_C its module's stubs were generated from
    (``(None, {})`` on a hand-written module: size and latency still
    profile, shape probing is skipped)."""
    presc = getattr(slot.module, "_flick_presc", None)
    stub = presc and next((stub for stub in presc.stubs
                           if stub.operation_name == slot.op), None)
    if stub is None:
        return None, {}
    from repro.mir.ops import mangle

    channels = stub.channels()
    channel = channels.get("request" if slot.direction == "request"
                           else slot.arm or "ok")
    return (None if channel is None else (channel, presc)), {
        mangle(items[0][1].class_name): label
        for label, items in channels.items() if label[0] == "x"}


def _reply_values(channel, result):
    """Align a ``_u_rep_`` return value with its channel's items.

    The generated convention: void reply -> None, one item -> the bare
    value, several items -> a tuple.
    """
    if channel is None:
        return None
    from repro.pres import nodes as p

    items = [pres for _name, pres in channel
             if not isinstance(pres, p.PresVoid)]
    if not items:
        return ()
    if len(items) == 1:
        return (result,)
    return result


class _MetricsSink:
    """Probe sink that tees observations into the live OpProfile and
    the registry families."""

    __slots__ = ("profile", "families", "op", "direction")

    def __init__(self, profile, families, op, direction):
        self.profile = profile
        self.families = families
        self.op = op
        self.direction = direction

    def length(self, path, kind, n):
        self.profile.length(path, kind, n)
        self.families["length"].labels(
            self.op, self.direction, path
        ).observe(n)

    def arm(self, path, label):
        self.profile.arm(path, label)
        self.families["arm"].labels(
            self.op, self.direction, path, label
        ).inc()


def instrument_stub_module(module):
    """Arrange payload-shape wrappers for a generated stub module.

    Covers the module's codec entries, the same set the tracer
    instruments: ``_m_req_<op>`` / ``_u_req_<op>`` (request
    encode/decode), ``_m_rep_ok_<op>`` / ``_m_rep_x<n>_<op>`` /
    ``_u_rep_<op>`` (reply encode/decode), as the ``profile`` layer of
    its :class:`repro.core.codecs.CodecSlots`.  Wrappers are installed
    only while a profiler is configured; disabled cost is exactly zero.
    Idempotent.
    """
    codecs.instrument(module, "profile")
    return module
