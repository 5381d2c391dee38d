"""Profile-guided tiered execution: recompile hot ops at runtime.

The two executable renderer names run the same rendered code and differ
in when a codec function is compiled (``py`` with the module,
``closures`` at its first call — :mod:`repro.mir.render_closures`), so a
promotion between them changes when an op was compiled, not what runs.
The machinery below is the part that does not depend on what the tiers
are: every operation starts on the compile-time renderer and the
:class:`TieringEngine` closes the loop at runtime:

* an always-on hotness counter (:class:`repro.obs.profile
  .HotnessCounter` — calls plus payload bytes, two integer adds per
  call, the ``hotness`` layer of the module's codec slots) trips the
  promotion threshold;
* the engine picks the renderer the ``flick profile`` cost model
  scores best for the op's *observed* payload shape (falling back to a
  structural hint from the naive type IR when the sampled profiler is
  off) and recompiles just that op in the background via
  :meth:`repro.core.handle.CompiledInterface.recompile`;
* the new codecs are **shadow-verified byte-identical** on first use:
  the old codec keeps serving while the new one runs against the same
  arguments into a scratch buffer (the slots' ``shadow`` layer); one
  mismatch reverts the op and pins it (byte fidelity is never
  negotiable); a verified codec becomes the slots' new base;
* after the swap, the hotness timing window measures the new tier; if
  it is slower than the tier-0 baseline by ``revert_ratio`` the engine
  reverts ("recompile was slower") with hysteresis on retries.

Tier lifecycle per operation::

                      hot (score >= threshold)
        tier-0 ───────────────────────────────► shadow
          ▲  ▲                                    │
          │  │ reverted_slow (retry after         │ bytes verified
          │  │ hysteresis; pin after              ▼
          │  └───────────────────────────────── tier-1
          │            bytes mismatch             │
          └────────────── pin ◄───────────────────┘

Everything is observable: ``flick_tier_current{op,worker}`` (0 = the
compile-time renderer, 1 = recompiled) and
``flick_tier_recompiles_total{op,outcome,worker}`` with outcomes
``promoted``, ``skipped_same``, ``reverted_bytes``, ``reverted_slow``,
and ``recompile_failed``.  ``flick serve --tiering auto`` turns the
engine on; ``--tiering FILE`` loads a :class:`TierPolicy` JSON.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, replace

from repro.core import codecs
from repro.encoding.buffer import MarshalBuffer
from repro.errors import FlickError
from repro.obs import profile as _profile

__all__ = ["TierPolicy", "TieringEngine", "resolve_policy"]


@dataclass(frozen=True)
class TierPolicy:
    """The tiering engine's knobs (JSON-loadable for ``--tiering FILE``).

    Attributes:
        threshold: hotness score (calls + payload bytes) an op must
            accrue before the engine considers recompiling it.  The
            default is 4 MiB-ish of traffic — hot enough that the
            recompile pays for itself, cold ops never pay anything.
        hysteresis: after a performance revert, the op must grow its
            score by this multiple of the score at revert time before
            the engine retries — so a borderline op cannot flap.
        revert_ratio: revert tier-1 when its timed window is this many
            times slower per byte than the tier-0 baseline.
        min_timed_samples: timed calls a window needs before the
            regression guard trusts it (both for the baseline and the
            tier-1 window).
        interval_s: background poll interval.
        max_retries: performance reverts tolerated before the op is
            pinned to tier-0 for good.
    """

    threshold: float = 4 * 1024 * 1024
    hysteresis: float = 2.0
    revert_ratio: float = 1.15
    min_timed_samples: int = 8
    interval_s: float = 0.25
    max_retries: int = 2

    def but(self, **changes):
        return replace(self, **changes)

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, data):
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise FlickError(
                "unknown tier-policy fields: %s"
                % ", ".join(sorted(unknown)))
        return cls(**data)

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.from_json(json.load(handle))


def resolve_policy(spec):
    """CLI ``--tiering`` value -> policy (or None when tiering is off).

    ``None``/``"off"`` disable tiering, ``"auto"`` is the default
    policy, anything else is a policy JSON file path.
    """
    if spec in (None, "off"):
        return None
    if spec == "auto":
        return TierPolicy()
    return TierPolicy.load(spec)


def engines(tiering):
    """A server's *tiering* argument as a tuple of engines.

    Servers take None, one :class:`TieringEngine`, or an iterable of
    them (the gateway runs one per side) and start and stop whatever
    this returns with their own lifecycle.
    """
    if tiering is None:
        return ()
    if hasattr(tiering, "poll_once"):
        return (tiering,)
    return tuple(tiering)


class _OpTier:
    """Mutable tiering state for one operation."""

    __slots__ = ("op", "tier", "renderer", "state", "target",
                 "pending", "old", "required", "verified", "baseline",
                 "retries", "retry_at_score", "converged", "reason")

    def __init__(self, op, renderer):
        self.op = op
        self.tier = 0
        self.renderer = renderer      # currently serving renderer
        self.state = "tier0"          # tier0 | shadow | tier1 | pinned
        self.target = None
        self.pending = {}
        self.old = {}
        self.required = set()
        self.verified = set()
        self.baseline = None
        self.retries = 0
        self.retry_at_score = 0.0
        self.converged = False
        self.reason = ""


class TieringEngine:
    """Drives tier transitions for one compiled interface.

    Args:
        handle: the :class:`~repro.core.handle.CompiledInterface`
            being served (its module is the one whose codecs swap).
        policy: a :class:`TierPolicy`; None means the defaults.
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`
            receiving ``flick_tier_current`` and
            ``flick_tier_recompiles_total``.
        worker: label value distinguishing per-worker series when a
            supervisor aggregates many workers' metrics ("" for a
            single-process server; the supervisor passes the slot).

    The engine is synchronous at heart: :meth:`poll_once` runs one
    decision round (deterministic for tests); :meth:`start` runs it on
    a background daemon thread every ``policy.interval_s``.  Every
    codec change goes through the module's
    :class:`~repro.core.codecs.CodecSlots`, which early-bound consumers
    (the gateway's plans) subscribe to.
    """

    def __init__(self, handle, *, policy=None, registry=None, worker=""):
        self.handle = handle
        self.policy = policy or TierPolicy()
        self.module = handle.module
        self.worker = str(worker)
        self.slots = codecs.of(self.module)
        self.hotness = _profile.HotnessCounter()
        self.ops = {}
        self._lock = threading.RLock()
        self._thread = None
        self._stop = threading.Event()
        self._attached = False
        self._tier_gauge = None
        self._recompiles = None
        if registry is not None:
            self._tier_gauge = registry.gauge(
                "flick_tier_current",
                "Current execution tier per op (0 = compile-time"
                " renderer, 1 = recompiled hot tier)",
                ("op", "worker"),
            )
            self._recompiles = registry.counter(
                "flick_tier_recompiles_total",
                "Tier transitions by outcome",
                ("op", "outcome", "worker"),
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def attach(self):
        """Turn the hotness layer on; idempotent.  Returns self."""
        with self._lock:
            if self._attached:
                return self
            tier0 = self.handle.stubs.renderer
            operations = set(self.handle.operations())
            hot = [slot for slot in self.slots.entries()
                   if slot.form in _profile.HOT_FORMS
                   and slot.op in operations]
            for slot in hot:
                if slot.op not in self.ops:
                    self.ops[slot.op] = _OpTier(slot.op, tier0)
                    self._set_gauge(slot.op, 0)
            self.slots.set_layer("hotness", self.hotness.layer,
                                 [slot.name for slot in hot])
            self._attached = True
        return self

    def start(self):
        """Run :meth:`poll_once` on a background daemon thread."""
        self.attach()
        if self._thread is not None:
            return self
        self._stop.clear()

        def run():
            while not self._stop.wait(self.policy.interval_s):
                try:
                    self.poll_once()
                except Exception:
                    # A tiering bug must never take the server down;
                    # worst case the op stays on tier-0.
                    pass

        self._thread = threading.Thread(
            target=run, name="flick-tiering", daemon=True)
        self._thread.start()
        return self

    def stop(self):
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback):
        self.stop()
        return False

    # ------------------------------------------------------------------
    # The decision round
    # ------------------------------------------------------------------

    def poll_once(self):
        """One decision round; returns ``[(op, action), ...]``."""
        actions = []
        with self._lock:
            for op, state in self.ops.items():
                if state.state == "shadow" or state.state == "pinned":
                    continue
                hot = self.hotness.hotness(op)
                if state.state == "tier1":
                    action = self._check_regression(op, state, hot)
                elif state.converged:
                    action = None
                else:
                    action = self._consider_promotion(op, state, hot)
                if action:
                    actions.append((op, action))
        return actions

    def _consider_promotion(self, op, state, hot):
        needed = max(self.policy.threshold, state.retry_at_score)
        if hot.score < needed:
            return None
        target, reason = self._choose_renderer(op)
        state.reason = reason
        if target == state.renderer:
            # The cost model picked what the op is already running —
            # converged on tier-0, nothing to recompile.
            state.converged = True
            self._count(op, "skipped_same")
            return "skipped_same"
        return self._promote(op, state, hot, target)

    def _promote(self, op, state, hot, target):
        try:
            new = self.handle.recompile(op, renderer=target,
                                        install=False)
        except Exception:
            state.state = "pinned"
            self._count(op, "recompile_failed")
            return "recompile_failed"
        bound = {slot.name: slot for slot in self.slots.entries(op)}
        state.pending = new
        state.old = {name: bound[name].base for name in new
                     if name in bound}
        state.target = target
        window = hot.window
        state.baseline = (
            window.seconds_per_byte()
            if window.samples >= self.policy.min_timed_samples
            else None)
        state.required = {
            name for name in state.old
            if bound[name].form in _profile.HOT_FORMS}
        state.verified = set()
        state.state = "shadow"
        self.slots.set_layer(
            "shadow",
            lambda slot, inner: self._make_shadow(
                op, state, slot, inner, new[slot.name]),
            state.required)
        return "shadow:%s" % target

    # -- shadow verification -------------------------------------------

    def _make_shadow(self, op, state, slot, old, new):
        """A one-shot verifying wrapper: OLD (the serving stack) serves
        and its bytes go on the wire, NEW (the candidate base) runs
        against the same arguments on the side; the eligible first call
        decides commit or revert."""
        engine = self
        name = slot.name

        if slot.form == "m_rep_ok":

            def shadow(b, _ctx, *args):
                start = b.length
                result = old(b, _ctx, *args)
                # Alignment padding depends on the absolute buffer
                # offset; only a start-of-buffer call (every dispatch
                # reply is one) compares equal buffers.
                if start == 0 and name not in state.verified:
                    try:
                        scratch = MarshalBuffer()
                        new(scratch, _ctx, *args)
                        ok = scratch.getvalue() == bytes(b.view())
                    except Exception:
                        ok = False
                    engine._shadow_note(op, state, name, ok)
                return result

        else:  # _u_req_

            def shadow(d, o):
                result = old(d, o)
                if name not in state.verified:
                    try:
                        ok = new(d, o) == result
                    except Exception:
                        ok = False
                    engine._shadow_note(op, state, name, ok)
                return result

        shadow.__wrapped__ = old
        return shadow

    def _shadow_note(self, op, state, name, ok):
        with self._lock:
            if state.state != "shadow":
                return
            if not ok:
                # Wrong bytes is codegen breakage, not workload noise:
                # revert and pin, never retry.
                self._revert(op, state, "reverted_bytes", pin=True)
                return
            state.verified.add(name)
            if state.required <= state.verified:
                self._commit(op, state)

    # -- transitions ----------------------------------------------------

    def _commit(self, op, state):
        self.slots.set_layer("shadow", None, state.required)
        self.slots.set_base(state.pending)
        self.hotness.hotness(op).reset_window()
        state.renderer = state.target
        state.tier = 1
        state.state = "tier1"
        self._set_gauge(op, 1)
        self._count(op, "promoted")

    def _revert(self, op, state, outcome, pin=False):
        self.slots.set_layer("shadow", None, state.required)
        if state.tier:
            self.slots.set_base(state.old)
        hot = self.hotness.hotness(op)
        hot.reset_window()
        state.pending = {}
        state.old = {}
        state.tier = 0
        state.renderer = self.handle.stubs.renderer
        state.retries += 1
        if pin or state.retries > self.policy.max_retries:
            state.state = "pinned"
        else:
            state.state = "tier0"
            state.retry_at_score = hot.score * self.policy.hysteresis
        self._set_gauge(op, 0)
        self._count(op, outcome)
        return outcome

    def _check_regression(self, op, state, hot):
        if state.converged:
            return None
        window = hot.window
        if window.samples < self.policy.min_timed_samples:
            return None
        per_byte = window.seconds_per_byte()
        if (state.baseline is not None and per_byte is not None
                and per_byte > state.baseline
                * self.policy.revert_ratio):
            return self._revert(op, state, "reverted_slow")
        # The recompile held up; stop paying for the comparison.
        state.converged = True
        return None

    # -- renderer choice ------------------------------------------------

    def _choose_renderer(self, op):
        """The cost model on live profiles; structural hint fallback."""
        profiler = _profile.active()
        if profiler is not None:
            profiles = [profiler.profile(op, "request"),
                        profiler.profile(op, "reply")]
            renderer, reason, scores = _profile.renderer_hint(profiles)
            if scores:
                return renderer, "profiled: " + reason
        return self._structural_hint(op)

    def _structural_hint(self, op):
        """py/closures from the naive type IR alone.

        The same structural fact the cost model's coefficients
        encode: whether any channel carries variable-length text.
        """
        thunk = getattr(self.module, "_flick_shapes", None)
        if thunk is None:
            return (self.handle.stubs.renderer,
                    "no shape information; keeping the current renderer")
        try:
            program = thunk()
            info = program.operations.get(op)
        except Exception:
            info = None
        if info is None:
            return (self.handle.stubs.renderer,
                    "no shape information; keeping the current renderer")
        channels = [info.get("request")]
        channels.extend(
            channel for _label, channel in (info.get("reply_arms") or ()))
        variable = any(
            _has_variable_text(node, program.types, set())
            for channel in channels if channel is not None
            for _name, node in channel.items)
        if variable:
            return ("py", "structural: string/bytes channels")
        return ("closures", "structural: fixed-layout channels")

    # -- bookkeeping ----------------------------------------------------

    def tier_summary(self):
        """Per-op state for ``status`` replies and ``flick top``.

        ``renderer`` and ``layers`` are read off the codec slots — what
        the module binds, not what the engine believes it installed.
        """
        with self._lock:
            stacks = self.slots.describe()
            return {
                op: {
                    "tier": state.tier,
                    "renderer": stacks[op]["renderer"],
                    "layers": stacks[op]["layers"],
                    "state": state.state,
                    "score": self.hotness.hotness(op).score,
                    "reason": state.reason,
                }
                for op, state in sorted(self.ops.items())
            }

    def _set_gauge(self, op, tier):
        if self._tier_gauge is not None:
            self._tier_gauge.labels(op, self.worker).set(tier)

    def _count(self, op, outcome):
        if self._recompiles is not None:
            self._recompiles.labels(op, outcome, self.worker).inc()


def _has_variable_text(node, types, seen):
    from repro.mir import ops as m

    if isinstance(node, (m.TString, m.TBytes)):
        return not isinstance(node, m.TBytes) or \
            node.fixed_length is None
    if isinstance(node, m.TRef):
        if node.name in seen:
            return False
        seen.add(node.name)
        target = types.get(node.name)
        return target is not None and _has_variable_text(
            target, types, seen)
    if isinstance(node, (m.TFixedArray, m.TCountedArray, m.TOptional)):
        return node.element is not None and _has_variable_text(
            node.element, types, seen)
    if isinstance(node, (m.TStruct, m.TException)):
        return any(_has_variable_text(field.node, types, seen)
                   for field in node.fields)
    if isinstance(node, m.TUnion):
        return any(_has_variable_text(arm.node, types, seen)
                   for arm in node.arms)
    return False
