"""The payload-shape profiler: what do the messages actually look like?

Flick specializes marshal code to the *schema*; adaptive work (gateway
fusion planning) needs to specialize to the observed *workload*.  This
module records, per operation and direction (``request``/``reply``):

* message-size histograms (bytes on the wire per codec call),
* per-channel sequence/string/bytes length histograms, keyed by dotted
  channel paths (``entries[].name``) derived from the naive type IR,
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

import json
import threading
import time

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

#: module -> :class:`_ProfiledModule` for every module handed to
#: :func:`instrument_stub_module`.
_instrumented = {}


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
    for record in _instrumented.values():
        record.activate(_profiler)
    return _profiler


def shutdown():
    """Disable profiling; remove the profile layer everywhere.

    Returns the final :class:`ProfileSnapshot` from the outgoing
    profiler (or None if profiling was already off) so callers can
    persist what was collected.
    """
    global _profiler
    previous, _profiler = _profiler, None
    for record in _instrumented.values():
        record.deactivate()
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
# Reading a snapshot: every wrong shape is a ValueError naming the field
# ----------------------------------------------------------------------

_JSON_KINDS = {dict: "an object", list: "a list", int: "an integer",
               float: "a number", str: "a string"}


def _expect(value, kind, field, optional=False):
    """*value* if it is a JSON *kind* (``float`` takes any number), else
    a :class:`ValueError` naming *field*: snapshots come from worker
    processes and operators' files, and every reader of one catches
    exactly that."""
    if optional and value is None:
        return value
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise ValueError("profile snapshot: %s must be %s, not %r"
                         % (field, _JSON_KINDS[kind], value))
    return value


def _counts(data, field, integer_keys=False):
    """A ``{key: count}`` table out of the JSON object *data*."""
    out = {}
    for key, count in _expect(data, dict, field).items():
        if integer_keys:
            try:
                key = int(key)
            except ValueError:
                raise ValueError(
                    "profile snapshot: %s has the non-integer key %r"
                    % (field, key)) from None
        out[key] = _expect(count, int, "%s[%s]" % (field, key))
    return out


# ----------------------------------------------------------------------
# Shape histogram: exact modes + bounded tail
# ----------------------------------------------------------------------


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

    __slots__ = ("kind", "exact", "overflow", "total", "sum",
                 "min", "max")

    def __init__(self, kind=""):
        self.kind = kind
        self.exact = {}
        self.overflow = {}
        self.total = 0
        self.sum = 0
        self.min = None
        self.max = 0

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
        for value, count in other.exact.items():
            self.exact[value] = self.exact.get(value, 0) + count
        for bucket, count in other.overflow.items():
            self.overflow[bucket] = self.overflow.get(bucket, 0) + count
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

    def to_json(self):
        return {
            "kind": self.kind,
            "exact": {str(v): c for v, c in sorted(self.exact.items())},
            "overflow": {str(b): c
                         for b, c in sorted(self.overflow.items())},
            "total": self.total,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_json(cls, data, field="histogram"):
        get = _expect(data, dict, field).get
        out = cls(kind=_expect(get("kind", ""), str, field + ".kind"))
        out.exact = _counts(get("exact", {}), field + ".exact", True)
        out.overflow = _counts(get("overflow", {}), field + ".overflow",
                               True)
        out.total = _expect(get("total", 0), int, field + ".total")
        out.sum = _expect(get("sum", 0), int, field + ".sum")
        out.min = _expect(get("min"), int, field + ".min", optional=True)
        out.max = _expect(get("max", 0), int, field + ".max")
        return out


class ArmCounter:
    """Label -> count; union arms, optional presence, reply arms,
    gateway paths."""

    __slots__ = ("counts",)

    def __init__(self):
        self.counts = {}

    def inc(self, label, amount=1):
        self.counts[label] = self.counts.get(label, 0) + amount

    @property
    def total(self):
        return sum(self.counts.values())

    def skew(self):
        """``(top_label, top_fraction)`` — how lopsided the arms are."""
        total = self.total
        if not total:
            return None, 0.0
        label, count = max(self.counts.items(),
                           key=lambda item: (item[1], item[0]))
        return label, count / total

    def merge(self, other):
        for label, count in other.counts.items():
            self.inc(label, count)
        return self

    def to_json(self):
        return dict(sorted(self.counts.items()))

    @classmethod
    def from_json(cls, data, field="arms"):
        out = cls()
        out.counts = _counts(data, field)
        return out


def _exemplar_key(exemplar):
    # Total order so top-K merge is associative regardless of tie
    # ordering: duration first, ids break ties deterministically.
    return (exemplar["duration_s"], exemplar.get("trace_id", ""),
            exemplar.get("span_id", ""), exemplar.get("bytes", 0))


def _hist_to_json(hist):
    return {
        "bounds": list(hist.bounds),
        "counts": list(hist.counts),
        "total": hist.total,
        "sum": hist.sum_seconds,
        "min": hist.min_seconds,
        "max": hist.max_seconds,
    }


def _hist_from_json(data, field):
    get = _expect(data, dict, field).get
    hist = LatencyHistogram(tuple(
        _expect(bound, float, field + ".bounds[]")
        for bound in _expect(get("bounds"), list, field + ".bounds")))
    counts = [_expect(count, int, field + ".counts[]")
              for count in _expect(get("counts"), list, field + ".counts")]
    if len(counts) != len(hist.counts):
        raise ValueError(
            "profile snapshot: %s.counts must hold one count per bucket"
            " (%d), not %d" % (field, len(hist.counts), len(counts)))
    hist.counts = counts
    hist.total = _expect(get("total"), int, field + ".total")
    hist.sum_seconds = _expect(get("sum"), float, field + ".sum")
    hist.min_seconds = _expect(get("min"), float, field + ".min",
                               optional=True)
    hist.max_seconds = _expect(get("max", 0.0), float, field + ".max")
    return hist


# ----------------------------------------------------------------------
# Per-operation profile
# ----------------------------------------------------------------------

#: Channel path under which reply-arm choice (ok vs each exception) is
#: counted; distinct from any IDL-derived path (no IDL identifier can
#: contain ``<``).
REPLY_ARM = "<reply>"


class OpProfile:
    """Everything observed for one ``(operation, direction)`` pair.

    Acts as the sink for :func:`repro.mir.shape.probe_args` (it has the
    ``length``/``arm`` methods).  ``calls`` counts *every* codec call
    (the cheap unsampled increment); everything else describes only the
    ``sampled`` subset — scale by ``calls / sampled`` for absolute
    rates.
    """

    __slots__ = ("op", "direction", "calls", "sampled", "flushed",
                 "size", "codec", "channels", "arms", "paths",
                 "exemplars", "exemplar_cap")

    def __init__(self, op, direction, exemplar_cap=DEFAULT_EXEMPLARS):
        self.op = op
        self.direction = direction
        self.calls = 0
        self.sampled = 0
        self.flushed = 0
        self.size = ShapeHistogram(kind="bytes")
        self.codec = {}       # "encode"/"decode" -> LatencyHistogram
        self.channels = {}    # path -> ShapeHistogram
        self.arms = {}        # path -> ArmCounter
        self.paths = ArmCounter()   # gateway: fused / re-encode
        self.exemplars = []   # slowest sampled calls, sorted desc
        self.exemplar_cap = exemplar_cap

    # -- sink protocol (repro.mir.shape) --------------------------------

    def length(self, path, kind, n):
        hist = self.channels.get(path)
        if hist is None:
            hist = self.channels[path] = ShapeHistogram(kind=kind)
        hist.observe(n)

    def arm(self, path, label):
        counter = self.arms.get(path)
        if counter is None:
            counter = self.arms[path] = ArmCounter()
        counter.inc(label)

    # -- recording -------------------------------------------------------

    def codec_hist(self, kind):
        hist = self.codec.get(kind)
        if hist is None:
            hist = self.codec[kind] = LatencyHistogram()
        return hist

    def note_exemplar(self, duration_s, trace_id, span_id, nbytes):
        exemplar = {
            "duration_s": duration_s,
            "trace_id": trace_id,
            "span_id": span_id,
            "bytes": nbytes,
        }
        self.exemplars.append(exemplar)
        if len(self.exemplars) > self.exemplar_cap:
            self.exemplars.sort(key=_exemplar_key, reverse=True)
            del self.exemplars[self.exemplar_cap:]

    @property
    def fused_fraction(self):
        """Fraction of gateway messages that took the fused copy path
        (None when this profile never saw a gateway)."""
        total = self.paths.total
        if not total:
            return None
        return self.paths.counts.get("fused", 0) / total

    # -- merge / serialization ------------------------------------------

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
        for path, counter in other.arms.items():
            mine = self.arms.get(path)
            if mine is None:
                mine = self.arms[path] = ArmCounter()
            mine.merge(counter)
        self.paths.merge(other.paths)
        merged = self.exemplars + other.exemplars
        merged.sort(key=_exemplar_key, reverse=True)
        cap = max(self.exemplar_cap, other.exemplar_cap)
        self.exemplars = merged[:cap]
        self.exemplar_cap = cap
        return self

    def to_json(self):
        return {
            "op": self.op,
            "direction": self.direction,
            "calls": self.calls,
            "sampled": self.sampled,
            "size": self.size.to_json(),
            "codec": {kind: _hist_to_json(hist)
                      for kind, hist in sorted(self.codec.items())},
            "channels": {path: hist.to_json()
                         for path, hist in sorted(self.channels.items())},
            "arms": {path: counter.to_json()
                     for path, counter in sorted(self.arms.items())},
            "paths": self.paths.to_json(),
            "exemplars": sorted(self.exemplars, key=_exemplar_key,
                                reverse=True),
            "exemplar_cap": self.exemplar_cap,
        }

    @classmethod
    def from_json(cls, data, field="op"):
        get = _expect(data, dict, field).get

        def table(key, read):
            where = "%s.%s" % (field, key)
            return {name: read(value, "%s[%s]" % (where, name))
                    for name, value
                    in _expect(get(key, {}), dict, where).items()}

        out = cls(_expect(get("op"), str, field + ".op"),
                  _expect(get("direction"), str, field + ".direction"),
                  exemplar_cap=_expect(
                      get("exemplar_cap", DEFAULT_EXEMPLARS), int,
                      field + ".exemplar_cap"))
        out.calls = _expect(get("calls", 0), int, field + ".calls")
        out.sampled = _expect(get("sampled", 0), int, field + ".sampled")
        out.size = ShapeHistogram.from_json(get("size", {}),
                                            field + ".size")
        out.codec = table("codec", _hist_from_json)
        out.channels = table("channels", ShapeHistogram.from_json)
        out.arms = table("arms", ArmCounter.from_json)
        out.paths = ArmCounter.from_json(get("paths", {}),
                                         field + ".paths")
        out.exemplars = list(
            _expect(get("exemplars", []), list, field + ".exemplars"))
        for index, exemplar in enumerate(out.exemplars):
            # What the top-K merge sorts by (_exemplar_key).
            where = "%s.exemplars[%d]" % (field, index)
            read = _expect(exemplar, dict, where).get
            for key, kind, default in (("duration_s", float, None),
                                       ("trace_id", str, ""),
                                       ("span_id", str, ""),
                                       ("bytes", int, 0)):
                _expect(read(key, default), kind, "%s.%s" % (where, key))
        return out


class ProfileSnapshot:
    """A versioned, mergeable, JSON-serializable set of op profiles."""

    def __init__(self, sample=DEFAULT_SAMPLE, ops=None):
        self.sample = sample
        #: ``(op, direction)`` -> :class:`OpProfile`.
        self.ops = ops if ops is not None else {}

    def profile(self, op, direction):
        key = (op, direction)
        found = self.ops.get(key)
        if found is None:
            found = self.ops[key] = OpProfile(op, direction)
        return found

    def for_op(self, op):
        """This op's profiles in direction order: request then reply."""
        return [self.ops[(op, direction)]
                for direction in ("request", "reply")
                if (op, direction) in self.ops]

    def op_names(self):
        return sorted({op for op, _direction in self.ops})

    def merge(self, other):
        for key, profile in other.ops.items():
            mine = self.ops.get(key)
            if mine is None:
                self.ops[key] = OpProfile.from_json(profile.to_json())
            else:
                mine.merge(profile)
        if other.sample != self.sample:
            # Counts stay correct; scaled-rate estimates become
            # per-snapshot.  Keep the coarser rate as the honest bound.
            self.sample = max(self.sample, other.sample)
        return self

    def to_json(self):
        return {
            "version": SNAPSHOT_VERSION,
            "kind": SNAPSHOT_KIND,
            "sample": self.sample,
            "ops": [self.ops[key].to_json()
                    for key in sorted(self.ops)],
        }

    @classmethod
    def from_json(cls, data):
        get = _expect(data, dict, "the document").get
        if get("kind") != SNAPSHOT_KIND:
            raise ValueError(
                "not a flick profile snapshot (kind=%r)" % (get("kind"),)
            )
        if get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                "unsupported profile snapshot version %r"
                % (get("version"),)
            )
        snapshot = cls(
            sample=_expect(get("sample", DEFAULT_SAMPLE), int, "sample"))
        for index, op_data in enumerate(
                _expect(get("ops", []), list, "ops")):
            profile = OpProfile.from_json(op_data, "ops[%d]" % index)
            snapshot.ops[(profile.op, profile.direction)] = profile
        return snapshot

    def save(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.from_json(json.load(handle))


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
        snapshot = ProfileSnapshot(sample=self.sample)
        with self._lock:
            profiles = list(self._profiles.values())
        for profile in profiles:
            snapshot.ops[(profile.op, profile.direction)] = \
                OpProfile.from_json(profile.to_json())
        return snapshot

    # -- recording -------------------------------------------------------

    def _record(self, entry, profile, duration_s, nbytes, values,
                reply_arm):
        try:
            profile.sampled += 1
            profile.size.observe(nbytes)
            profile.codec_hist(entry.kind).observe(duration_s)
            if reply_arm is not None:
                profile.arm(REPLY_ARM, reply_arm)
            if values is not None and entry.channel is not None:
                from repro.mir import shape

                sink = profile
                if self._families is not None:
                    sink = _MetricsSink(profile, self._families,
                                        entry.op, entry.direction)
                shape.probe_args(entry.channel, entry.types, values,
                                 sink)
            ids = _trace.current_ids()
            if ids is not None:
                profile.note_exemplar(duration_s, ids[0], ids[1],
                                      nbytes)
            if self._families is not None:
                labels = (entry.op, entry.direction)
                self._families["sampled"].labels(*labels).inc()
                delta = profile.calls - profile.flushed
                profile.flushed = profile.calls
                self._families["calls"].labels(*labels).inc(delta)
                self._families["bytes"].labels(*labels).observe(nbytes)
                self._families["codec"].labels(
                    entry.op, entry.kind
                ).observe(duration_s)
                if reply_arm is not None:
                    self._families["arm"].labels(
                        entry.op, entry.direction, REPLY_ARM, reply_arm
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
        profile.paths.inc(path)
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

    # -- wrapper factory -------------------------------------------------

    def _make_wrapper(self, entry, inner):
        profile = self.profile(entry.op, entry.direction)
        sample = self.sample
        owner = self
        perf_counter = time.perf_counter

        if entry.form == "m_req" or entry.form == "m_rep_ok":
            reply_arm = entry.arm

            def wrapper(b, _ctx, *args):
                profile.calls += 1
                if _profiler is not owner or profile.calls % sample:
                    return inner(b, _ctx, *args)
                before = b.length
                start = perf_counter()
                result = inner(b, _ctx, *args)
                duration = perf_counter() - start
                owner._record(entry, profile, duration,
                              b.length - before, args, reply_arm)
                return result

        elif entry.form == "m_rep_exc":
            reply_arm = entry.arm

            def wrapper(b, _ctx, _exc):
                profile.calls += 1
                if _profiler is not owner or profile.calls % sample:
                    return inner(b, _ctx, _exc)
                before = b.length
                start = perf_counter()
                result = inner(b, _ctx, _exc)
                duration = perf_counter() - start
                owner._record(entry, profile, duration,
                              b.length - before, (_exc,), reply_arm)
                return result

        elif entry.form == "u_req":

            def wrapper(d, o):
                profile.calls += 1
                if _profiler is not owner or profile.calls % sample:
                    return inner(d, o)
                start = perf_counter()
                args, end = inner(d, o)
                duration = perf_counter() - start
                owner._record(entry, profile, duration, end - o, args,
                              None)
                return args, end

        else:  # "u_rep"

            def wrapper(d, o):
                profile.calls += 1
                if _profiler is not owner or profile.calls % sample:
                    return inner(d, o)
                start = perf_counter()
                try:
                    result = inner(d, o)
                except Exception as exc:
                    duration = perf_counter() - start
                    owner._record(entry, profile, duration, len(d) - o,
                                  None, type(exc).__name__)
                    raise
                duration = perf_counter() - start
                values = _reply_values(entry.channel, result)
                owner._record(entry, profile, duration, len(d) - o,
                              values, "ok")
                return result

        wrapper.__name__ = getattr(inner, "__name__", entry.name)
        wrapper.__wrapped__ = inner
        return wrapper


def _reply_values(channel, result):
    """Align a ``_u_rep_`` return value with its channel's items.

    The generated convention: void reply -> None, one item -> the bare
    value, several items -> a tuple.
    """
    if channel is None:
        return None
    from repro.mir import ops as m

    items = [
        (name, node) for name, node in channel.items
        if not isinstance(node, m.TVoid)
    ]
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


# ----------------------------------------------------------------------
# Stub-module instrumentation (the codec slots' ``profile`` layer)
# ----------------------------------------------------------------------


class _Entry:
    """One codec entry's probing context: its slot's parsed name plus
    the naive channel its values are probed against."""

    __slots__ = ("name", "op", "direction", "kind", "form", "arm",
                 "channel", "types")

    def __init__(self, slot):
        self.name = slot.name
        self.op = slot.op
        self.direction = slot.direction
        self.kind = slot.kind
        self.form = slot.form
        self.arm = slot.arm
        self.channel = None
        self.types = {}


class _ProfiledModule:
    """What profiling turns on and off over one stub module."""

    def __init__(self, module):
        self.slots = codecs.of(module)
        self.entries = None

    def activate(self, profiler):
        if self.entries is None:
            self.entries = {slot.name: _Entry(slot)
                            for slot in self.slots.entries()}
            self._resolve_shapes()
        self.slots.set_layer(
            "profile",
            lambda slot, inner: profiler._make_wrapper(
                self.entries[slot.name], inner))

    def deactivate(self):
        self.slots.set_layer("profile", None)

    def _resolve_shapes(self):
        """Attach naive channels to entries from the module's lazy
        ``_flick_shapes`` thunk (absent on hand-written modules —
        size/latency still profile, shape probing is skipped)."""
        thunk = getattr(self.slots.module, "_flick_shapes", None)
        if thunk is None:
            return
        try:
            program = thunk()
        except Exception:
            return
        for entry in self.entries.values():
            info = program.operations.get(entry.op)
            if info is None:
                continue
            entry.types = program.types
            reply_arms = info.get("reply_arms") or []
            if entry.direction == "request":
                entry.channel = info["request"]
            elif entry.form != "m_rep_exc":
                if reply_arms:
                    entry.channel = reply_arms[0][1]
            else:  # the matching exception arm's channel
                for label, channel in reply_arms:
                    if label == entry.arm:
                        entry.channel = channel
                        break


def instrument_stub_module(module):
    """Arrange payload-shape wrappers for a generated stub module.

    Covers the module's codec entries, the same set the tracer
    instruments: ``_m_req_<op>`` / ``_u_req_<op>`` (request
    encode/decode), ``_m_rep_ok_<op>`` / ``_m_rep_x<n>_<op>`` /
    ``_u_rep_<op>`` (reply encode/decode).  Wrappers are installed only
    while a profiler is configured; disabled cost is exactly zero.
    Idempotent.
    """
    if module not in _instrumented:
        record = _instrumented[module] = _ProfiledModule(module)
        if _profiler is not None:
            record.activate(_profiler)
    return module

