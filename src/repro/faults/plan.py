"""Fault plans: seeded, composable wire-fault specifications.

A :class:`FaultPlan` is a value object — probabilities only, no state —
so it can live in a JSON file next to a test (:mod:`repro.documents`
reads and writes it), be passed to ``flick serve --fault-plan``, and be
compared in assertions.  A :class:`FaultInjector` executes a plan over
a message stream with its own seeded RNG, making every fault sequence
reproducible from ``(plan, message order)`` alone.

Faults compose per message in a fixed order: reset > drop > truncate >
corrupt > delay > duplicate > reorder.  Each is rolled independently, so
``truncate=0.01, corrupt=0.01`` yields both on ~0.01% of messages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import FlickError

_PROBABILITY_FIELDS = (
    "drop", "delay", "duplicate", "reorder", "truncate", "corrupt",
    "reset",
)


@dataclass(frozen=True)
class FaultPlan:
    """Per-message fault probabilities plus their shape parameters.

    Attributes:
        seed: RNG seed; the same plan replays the same fault sequence.
        drop: probability a message silently disappears.
        delay: probability a message is delayed by *delay_s* seconds.
        duplicate: probability a message is delivered twice.
        reorder: probability a message is held and delivered after its
            successor (swapping adjacent messages).
        truncate: probability a message loses its tail (a uniform cut
            point leaves at least one byte, never the whole message).
        corrupt: probability *corrupt_bits* random bits flip.
        reset: probability the connection is torn down instead of
            delivering the message.
        delay_s: the injected delay, seconds.
        corrupt_bits: bits flipped per corrupted message.
    """

    seed: int = 0
    drop: float = 0.0
    delay: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    truncate: float = 0.0
    corrupt: float = 0.0
    reset: float = 0.0
    delay_s: float = 0.001
    corrupt_bits: int = 1

    def __post_init__(self):
        for name in _PROBABILITY_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FlickError(
                    "fault probability %s=%r is not in [0, 1]"
                    % (name, value)
                )
        if self.corrupt_bits < 1:
            raise FlickError("corrupt_bits must be at least 1")
        if self.delay_s < 0:
            raise FlickError("delay_s must be non-negative")

    def injector(self):
        """A fresh stateful executor for this plan."""
        return FaultInjector(self)


@dataclass(frozen=True)
class Delivery:
    """One (possibly perturbed) message to deliver, after *delay_s*."""

    payload: bytes
    delay_s: float = 0.0


@dataclass(frozen=True)
class Outcome:
    """What the injector decided for one inbound message.

    ``deliveries`` is empty when the message was dropped or held for
    reordering; ``reset`` asks the caller to tear the connection down.
    """

    deliveries: tuple = ()
    reset: bool = False


class FaultInjector:
    """Stateful, seeded executor of a :class:`FaultPlan`.

    Feed each inbound message to :meth:`on_message` and act on the
    returned :class:`Outcome`.  The injector counts every fault it
    injects in :attr:`counts` so tests and benchmarks can assert on the
    realized fault mix, not just the probabilities.
    """

    def __init__(self, plan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._held = None  # Delivery awaiting its reorder partner
        self.counts = {
            name: 0
            for name in _PROBABILITY_FIELDS + ("messages", "delivered")
        }

    @property
    def holding(self):
        """Whether a message is held for reordering: the next message
        delivered releases it, as its last delivery."""
        return self._held is not None

    def _roll(self, probability):
        return probability > 0.0 and self._rng.random() < probability

    def perturb(self, payload):
        """Apply the payload-shape faults (truncate, corrupt) only.

        Returns the possibly-modified bytes; used for reply streams
        where drop/reorder semantics belong to the request side.
        """
        plan = self.plan
        data = bytes(payload)
        if self._roll(plan.truncate) and len(data) > 1:
            self.counts["truncate"] += 1
            data = data[:self._rng.randrange(1, len(data))]
        if self._roll(plan.corrupt) and data:
            self.counts["corrupt"] += 1
            mutable = bytearray(data)
            for _ in range(plan.corrupt_bits):
                index = self._rng.randrange(len(mutable))
                mutable[index] ^= 1 << self._rng.randrange(8)
            data = bytes(mutable)
        return data

    def on_message(self, payload):
        """Decide the fate of one inbound message."""
        plan = self.plan
        self.counts["messages"] += 1
        if self._roll(plan.reset):
            self.counts["reset"] += 1
            return Outcome(reset=True)
        if self._roll(plan.drop):
            self.counts["drop"] += 1
            return Outcome()
        data = self.perturb(payload)
        delay = 0.0
        if self._roll(plan.delay):
            self.counts["delay"] += 1
            delay = plan.delay_s
        deliveries = [Delivery(data, delay)]
        if self._roll(plan.duplicate):
            self.counts["duplicate"] += 1
            deliveries.append(Delivery(data, delay))
        if self._held is not None:
            # Release the held message *after* the current one: the two
            # adjacent messages arrive swapped.
            deliveries.append(self._held)
            self._held = None
        elif len(deliveries) == 1 and self._roll(plan.reorder):
            self.counts["reorder"] += 1
            self._held = deliveries[0]
            return Outcome()
        self.counts["delivered"] += len(deliveries)
        return Outcome(deliveries=tuple(deliveries))

    def drain(self):
        """Deliveries still held for reordering (call at stream end)."""
        if self._held is None:
            return ()
        held, self._held = self._held, None
        self.counts["delivered"] += 1
        return (held,)
