"""Deterministic fault injection for transports and servers.

This package turns "the network is hostile" into a first-class, seeded,
reproducible test fixture:

* :class:`FaultPlan` — a frozen, JSON-round-trippable spec of fault
  probabilities (drop, delay, duplicate, reorder, truncate, bit-flip
  corruption, connection reset).
* :class:`FaultInjector` — the stateful, seeded executor of a plan;
  every run with the same seed perturbs the same messages the same way.
* :class:`FaultyTransport` / :class:`FaultyAioTransport` — wrappers
  applying a plan to any blocking :class:`~repro.runtime.transport
  .Transport` or to the protocol gateway's upstream leg.

Servers accept a plan directly (``fault_plan=`` on
:class:`~repro.runtime.socket_transport.TcpServer` and
:class:`~repro.runtime.aio.server.AioTcpServer`, or ``flick serve
--fault-plan FILE``), perturbing inbound requests before dispatch.
"""

from repro.faults.plan import Delivery, FaultInjector, FaultPlan, Outcome
from repro.faults.transport import FaultyAioTransport, FaultyTransport

__all__ = [
    "Delivery",
    "FaultInjector",
    "FaultPlan",
    "FaultyAioTransport",
    "FaultyTransport",
    "Outcome",
]
