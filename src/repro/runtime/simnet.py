"""Virtual-clock network link models.

The paper measures end-to-end throughput over 10 Mbps Ethernet, 100 Mbps
Ethernet, and 640 Mbps Myrinet, and reports (via ``ttcp``) the *effective*
bandwidths those links deliver once the 1997 operating system's protocol
stack is accounted for: about 7.5, 70, and 84.5 Mbps respectively.  This
module substitutes a deterministic link model for the physical networks
(see DESIGN.md): transferring ``n`` bytes costs

    ``per_message_overhead + n / effective_bandwidth``

of *simulated* time, accumulated on a virtual clock.  The end-to-end
benchmark harness combines this simulated wire time with *measured* stub
CPU time; the paper's own analysis (section 4) attributes end-to-end
throughput to exactly these two components, so the crossover structure —
everyone wire-limited at 10 Mbps, marshal-limited stubs separating on fast
links — is preserved.

The per-message overhead represents per-packet protocol work and interrupt
handling; 1997-era null-RPC times over Ethernet were several hundred
microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.transport import LoopbackTransport


@dataclass(frozen=True)
class LinkModel:
    """A simulated network link.

    Attributes:
        name: display name.
        raw_bandwidth_bps: the advertised link rate (reported only).
        effective_bandwidth_bps: the ttcp-measured achievable rate; the
            model charges bytes against this.
        per_message_overhead_s: fixed simulated cost per message in each
            direction (protocol stack + interrupt + syscall).
    """

    name: str
    raw_bandwidth_bps: float
    effective_bandwidth_bps: float
    per_message_overhead_s: float

    def transfer_time(self, size_bytes):
        """Simulated seconds to move one *size_bytes* message one way."""
        return (
            self.per_message_overhead_s
            + size_bytes * 8.0 / self.effective_bandwidth_bps
        )


#: The paper's three networks, with its measured effective bandwidths.
ETHERNET_10 = LinkModel(
    name="10Mbps Ethernet",
    raw_bandwidth_bps=10e6,
    effective_bandwidth_bps=7.5e6,
    per_message_overhead_s=400e-6,
)
ETHERNET_100 = LinkModel(
    name="100Mbps Ethernet",
    raw_bandwidth_bps=100e6,
    effective_bandwidth_bps=70e6,
    per_message_overhead_s=300e-6,
)
MYRINET_640 = LinkModel(
    name="640Mbps Myrinet",
    raw_bandwidth_bps=640e6,
    effective_bandwidth_bps=84.5e6,
    per_message_overhead_s=250e-6,
)


class SimulatedNetworkTransport(LoopbackTransport):
    """A loopback dispatch behind a simulated link.

    CPU time (marshaling, dispatch, unmarshaling) passes through and is
    measured by the caller with a real clock; wire time accumulates on
    :attr:`simulated_seconds`.  The end-to-end harness adds the two.
    """

    def __init__(self, dispatch, impl, link):
        super().__init__(dispatch, impl)
        self.link = link

    def _carry(self, message):
        self.simulated_seconds += self.link.transfer_time(len(message))
        return super()._carry(message)
