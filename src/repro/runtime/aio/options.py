"""Policy objects for the concurrent runtime: retries and deadlines.

These are plain frozen dataclasses so they can be shared between threads
and compared in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for retryable failures.

    A call is retried only when it is safe: connection establishment
    failures (no request was ever written), oneway sends, and two-way
    calls explicitly marked idempotent via :class:`CallOptions`.  Deadline
    expiry is never retried — the time budget is already spent.
    """

    max_attempts: int = 3
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 1.0

    def delay(self, attempt):
        """Backoff before retry number *attempt* (0-based)."""
        return min(self.base_delay * (self.multiplier ** attempt),
                   self.max_delay)


@dataclass(frozen=True)
class CallOptions:
    """Per-call knobs a client transport applies to every request.

    Attributes:
        deadline: seconds allowed per attempt (connect + send + reply);
            ``None`` disables the deadline.
        idempotent: marks two-way calls as safe to retry after transport
            failures that may have executed the request (read-only
            operations).  Oneway sends are always treated as retryable.
        retry: the backoff schedule; ``None`` disables retries entirely.
        retry_deadlines: also retry idempotent calls whose *per-attempt*
            deadline expired (e.g. the request was dropped by a lossy
            network).  Off by default: the historical semantics treat an
            expired deadline as the call's whole budget being spent.
    """

    deadline: Optional[float] = None
    idempotent: bool = False
    retry: Optional[RetryPolicy] = RetryPolicy()
    retry_deadlines: bool = False

    def but(self, **changes):
        """A copy with *changes* applied."""
        return replace(self, **changes)
