"""The metrics half of ``repro.obs``: counters, gauges, histograms.

A :class:`MetricsRegistry` owns named metric *families*; a family with
label names fans out into one child per label-value combination (the
Prometheus data model).  Children are plain objects with ``__slots__``
and one lock per family, so the hot path — ``counter.inc()``,
``histogram.observe()`` — is an attribute bump under a lock the GIL makes
cheap.  The registry renders the whole collection in Prometheus text
exposition format for the ``--metrics-port`` endpoint.

:class:`LatencyHistogram` is the log-bucketed histogram the aio server's
``ServerStats`` introduced; it lives here now so the blocking servers and
the client runtime share it.  Its :meth:`~LatencyHistogram.percentile`
interpolates linearly *within* the winning bucket — clamped to the
observed min/max — instead of reporting the bucket's upper bound, and the
overflow bucket (beyond the last bound) is interpolated against the
observed maximum.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

#: Histogram bucket upper bounds, seconds (log-spaced, 1-3-10 ladder).
BUCKET_BOUNDS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0,
    10.0,
)
INF = float("inf")


@dataclass(slots=True)
class LatencyHistogram:
    """Fixed-bucket histogram with interpolated percentile estimates.

    Its fields, in seconds, are its profile-snapshot JSON
    (:mod:`repro.documents`); :meth:`empty` makes one with no
    observations.
    """

    bounds: list[float]
    counts: list[int]
    total: int
    sum: float
    max: float = 0.0
    min: Optional[float] = None

    @classmethod
    def empty(cls, bounds=BUCKET_BOUNDS):
        return cls(bounds, [0] * (len(bounds) + 1), 0, 0.0)

    def __post_init__(self):
        if len(self.counts) != len(self.bounds) + 1:
            raise ValueError("counts must hold one count per bucket (%d),"
                             " not %d" % (len(self.bounds) + 1,
                                          len(self.counts)))

    def observe(self, seconds):
        self.counts[bisect_left(self.bounds, seconds)] += 1
        self.total += 1
        self.sum += seconds
        if seconds > self.max:
            self.max = seconds
        if self.min is None or seconds < self.min:
            self.min = seconds

    def percentile(self, q):
        """Linear-interpolated *q*-th percentile estimate.

        The rank is located in its bucket; the estimate interpolates
        between the bucket's bounds, with both ends clamped to the
        observed minimum and maximum so tightly clustered samples (all
        1 ms, say) report ~1 ms rather than the bucket's upper bound.
        The overflow bucket has no upper bound; the observed maximum
        stands in for it.
        """
        if not self.total:
            return 0.0
        rank = max(1, int(self.total * q / 100.0 + 0.5))
        seen = 0
        for index, count in enumerate(self.counts):
            if not count:
                continue
            if seen + count >= rank:
                if index < len(self.bounds):
                    lower = self.bounds[index - 1] if index else 0.0
                    upper = self.bounds[index]
                else:  # overflow bucket: beyond the last bound
                    lower = self.bounds[-1]
                    upper = self.max
                if self.min is not None:
                    lower = max(lower, self.min)
                upper = min(upper, self.max) if self.max else upper
                if upper < lower:
                    upper = lower
                fraction = (rank - seen) / count
                return lower + fraction * (upper - lower)
            seen += count
        return self.max

    def merge(self, other):
        """Fold *other*'s observations into this histogram (in place).

        Both histograms must share bucket bounds.  Counts, totals, and
        sums add; min/max combine — the merge a profile snapshot needs
        when aggregating across workers.
        """
        if tuple(other.bounds) != tuple(self.bounds):
            raise ValueError("cannot merge histograms with different"
                             " bucket bounds")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        return self


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_value", "_lock")

    def __init__(self, lock):
        self._value = 0
        self._lock = lock

    def inc(self, amount=1):
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value


class Gauge:
    """A value that can go up and down (pool occupancy, in-flight work)."""

    __slots__ = ("_value", "_lock")

    def __init__(self, lock):
        self._value = 0
        self._lock = lock

    def set(self, value):
        with self._lock:
            self._value = value

    @property
    def value(self):
        return self._value


class Histogram:
    """A locked :class:`LatencyHistogram` child."""

    __slots__ = ("_histogram", "_lock")

    def __init__(self, lock, bounds=BUCKET_BOUNDS):
        self._histogram = LatencyHistogram.empty(bounds)
        self._lock = lock

    def observe(self, value):
        with self._lock:
            self._histogram.observe(value)

    @property
    def total(self):
        return self._histogram.total

    @property
    def sum(self):
        return self._histogram.sum

    @property
    def bounds(self):
        return self._histogram.bounds

    @property
    def bucket_counts(self):
        with self._lock:
            return tuple(self._histogram.counts)


class MetricFamily:
    """One named metric with zero or more label dimensions."""

    def __init__(self, name, help_text, labelnames, factory, kind):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self.kind = kind
        self._factory = factory
        self._lock = threading.Lock()
        self._children = {}

    def labels(self, *values, **by_name):
        """The child for one label-value combination (created on demand)."""
        if by_name:
            values = values + tuple(
                by_name[name] for name in self.labelnames[len(values):]
            )
        if len(values) != len(self.labelnames):
            raise ValueError(
                "%s takes labels %r, got %r"
                % (self.name, self.labelnames, values)
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._factory(self._lock)
        return child

    def collect(self):
        """``(label_values, child)`` pairs, snapshot under the lock."""
        with self._lock:
            return list(self._children.items())

    # Unlabeled convenience: the family itself acts as its only child.

    def inc(self, amount=1):
        self.labels().inc(amount)

    def set(self, value):
        self.labels().set(value)

    @property
    def value(self):
        return self.labels().value


class MetricsRegistry:
    """A named collection of metric families with Prometheus exposition."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families = {}
        self._callbacks = {}

    # -- family constructors (idempotent per name) ----------------------

    def _family(self, name, help_text, labelnames, factory, kind):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = MetricFamily(
                    name, help_text, labelnames, factory, kind
                )
            elif family.kind != kind or \
                    family.labelnames != tuple(labelnames):
                raise ValueError(
                    "metric %r already registered as a %s with labels %r"
                    % (name, family.kind, family.labelnames)
                )
            return family

    def counter(self, name, help_text="", labelnames=()):
        return self._family(name, help_text, labelnames, Counter, "counter")

    def gauge(self, name, help_text="", labelnames=()):
        return self._family(name, help_text, labelnames, Gauge, "gauge")

    def histogram(self, name, help_text="", labelnames=(),
                  bounds=BUCKET_BOUNDS):
        def factory(lock):
            return Histogram(lock, bounds)

        return self._family(name, help_text, labelnames, factory,
                            "histogram")

    def gauge_callback(self, name, help_text, callback):
        """Register a zero-argument callable sampled at render time.

        Used for values owned elsewhere (e.g. the marshal-buffer
        allocation counters in :mod:`repro.encoding.buffer`).
        """
        with self._lock:
            self._callbacks[name] = (help_text, callback)

    def families(self):
        with self._lock:
            return list(self._families.values())

    def render_prometheus(self):
        """The registry in Prometheus text exposition format (0.0.4).

        Label values escape backslash, double-quote, and newline; HELP
        text escapes backslash and newline — both per the text-format
        spec, so IDL-derived operation names (which may legally contain
        any of those once quoting and baselines get involved) can never
        tear the exposition.
        """
        lines = []
        for family in self.families():
            if family.help:
                lines.append("# HELP %s %s"
                             % (family.name, _escape_help(family.help)))
            lines.append("# TYPE %s %s" % (family.name, family.kind))
            for key, child in sorted(family.collect()):
                labels = _label_text(family.labelnames, key)
                if family.kind == "histogram":
                    cumulative = 0
                    counts = child.bucket_counts
                    for bound, count in zip(child.bounds, counts):
                        cumulative += count
                        lines.append('%s_bucket%s %d' % (
                            family.name,
                            _label_text(
                                family.labelnames + ("le",),
                                key + ("%g" % bound,),
                            ),
                            cumulative,
                        ))
                    cumulative += counts[-1]
                    lines.append('%s_bucket%s %d' % (
                        family.name,
                        _label_text(family.labelnames + ("le",),
                                    key + ("+Inf",)),
                        cumulative,
                    ))
                    lines.append("%s_sum%s %s"
                                 % (family.name, labels, _fmt(child.sum)))
                    lines.append("%s_count%s %d"
                                 % (family.name, labels, child.total))
                else:
                    lines.append("%s%s %s"
                                 % (family.name, labels, _fmt(child.value)))
        with self._lock:
            callbacks = list(self._callbacks.items())
        for name, (help_text, callback) in sorted(callbacks):
            if help_text:
                lines.append("# HELP %s %s"
                             % (name, _escape_help(help_text)))
            lines.append("# TYPE %s gauge" % name)
            lines.append("%s %s" % (name, _fmt(callback())))
        return "\n".join(lines) + "\n"


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _escape(value):
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _escape_help(value):
    # HELP text escapes only backslash and newline (double quotes are
    # legal there, unlike in label values).
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _label_text(names, values):
    if not names:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (name, _escape(value))
        for name, value in zip(names, values)
    )


def _unescape_label(value):
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == '"':
                out.append('"')
            elif nxt == "n":
                out.append("\n")
            else:
                out.append(ch)
                out.append(nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _parse_labels(text):
    """``op="a",le="+Inf"`` → sorted tuple of (name, value) pairs."""
    pairs = []
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq].strip()
        if text[eq + 1] != '"':
            raise ValueError("unquoted label value in %r" % text)
        j = eq + 2
        while True:
            if j >= len(text):
                raise ValueError("unterminated label value in %r" % text)
            if text[j] == "\\":
                j += 2
                continue
            if text[j] == '"':
                break
            j += 1
        pairs.append((name, _unescape_label(text[eq + 2:j])))
        i = j + 1
        if i < len(text) and text[i] == ",":
            i += 1
    return tuple(sorted(pairs))


def parse_prometheus(text):
    """Parse text exposition (0.0.4) into ``{name: {labels: value}}``.

    The inverse of :meth:`MetricsRegistry.render_prometheus`, used by
    ``flick top`` and the scrape tests.  ``labels`` keys are sorted
    tuples of ``(name, value)`` pairs with escapes undone; histogram
    series appear under their ``_bucket``/``_sum``/``_count`` sample
    names.  Raises :class:`ValueError` on torn or malformed lines, which
    is exactly what the concurrent-scrape test wants to detect.
    """
    samples = {}
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        brace = line.find("{")
        if brace >= 0:
            close = line.rindex("}")
            name = line[:brace]
            labels = _parse_labels(line[brace + 1:close])
            rest = line[close + 1:].strip()
        else:
            name, _, rest = line.partition(" ")
            labels = ()
            rest = rest.strip()
        if not name or not rest:
            raise ValueError("malformed exposition line: %r" % line)
        value = float(rest.split()[0])
        samples.setdefault(name, {})[labels] = value
    return samples


#: ``flick top``'s columns: the family each sums per ``op`` label.
TOP_FAMILIES = (
    ("requests", "flick_server_requests_total"),
    ("errors", "flick_server_errors_total"),
    ("bytes", "flick_profile_message_bytes_sum"),
    ("transcoded", "flick_profile_transcode_total"),
    ("buckets", "flick_server_latency_seconds_bucket"),
)


def top_rows(samples):
    """Per-op cumulative totals out of one :func:`parse_prometheus`
    scrape: the :data:`TOP_FAMILIES` columns, ``fused`` (transcodes on
    the fused path) and ``latency``, a :class:`LatencyHistogram` of the
    de-cumulated ``le`` buckets.  Sampled byte totals are scaled back
    up by ``flick_profile_sample_rate``."""
    rate = max(samples.get("flick_profile_sample_rate", {}).values(),
               default=1.0) or 1.0
    rows = {}
    for column, family in TOP_FAMILIES:
        for labels, value in samples.get(family, {}).items():
            labels = dict(labels)
            row = rows.setdefault(labels.get("op", "?"), dict(
                dict.fromkeys(("requests", "errors", "bytes", "transcoded",
                               "fused"), 0.0), buckets={}))
            if column == "buckets":
                bound = float(labels.get("le", "+Inf"))
                row["buckets"][bound] = row["buckets"].get(bound, 0) + value
                continue
            row[column] += value * (rate if column == "bytes" else 1)
            if column == "transcoded" and labels.get("path") == "fused":
                row["fused"] += value
    for row in rows.values():
        cumulative = row.pop("buckets")
        bounds = sorted(bound for bound in cumulative if bound != INF)
        counts, below = [], 0
        for bound in bounds + [INF]:
            counts.append(cumulative.get(bound, below) - below)
            below = cumulative.get(bound, below)
        row["latency"] = LatencyHistogram(bounds, counts, int(below), 0.0)
    return rows


def top_table(rows, previous=None, interval=None):
    """``flick top``'s table: cumulative totals, or per-second rates
    against the *previous* rows *interval* seconds earlier."""
    header = ("%-20s %10s %8s %9s %9s %10s %7s"
              % ("op", "requests" if previous is None else "req/s",
                 "errors", "p50 ms", "p99 ms",
                 "bytes" if previous is None else "bytes/s", "fused"))
    lines = [header, "-" * len(header)]
    for op, stats in sorted(rows.items(),
                            key=lambda item: -item[1]["requests"]):
        requests, nbytes = stats["requests"], stats["bytes"]
        if previous is not None:
            before = previous.get(op, {"requests": 0.0, "bytes": 0.0})
            requests = (requests - before["requests"]) / interval
            nbytes = (nbytes - before["bytes"]) / interval
        fused = ("%.0f%%" % (100.0 * stats["fused"] / stats["transcoded"])
                 if stats["transcoded"] else "-")
        lines.append("%-20s %10.1f %8d %9.2f %9.2f %10s %7s" % (
            op, requests, stats["errors"],
            1e3 * stats["latency"].percentile(50),
            1e3 * stats["latency"].percentile(99), _human_bytes(nbytes),
            fused))
    return "\n".join(lines)


def _human_bytes(n):
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0:
            return "%.1f%s" % (n, unit)
        n /= 1024.0
    return "%.1fTiB" % n


#: The process-default registry; runtime pieces that are not handed an
#: explicit registry record here.
REGISTRY = MetricsRegistry()
