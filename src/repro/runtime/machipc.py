"""Simulated Mach 3 IPC between tasks on one host.

The paper's Figure 7 measures MIG and Flick stubs exchanging Mach messages
between two tasks on a 100 MHz Pentium.  Mach IPC cost is dominated by a
fixed per-message kernel path (port rights, header validation, scheduling
hand-off) plus a per-byte copy through the kernel.  This model charges both
on a virtual clock; the calibration constants approximate the paper's
platform (a null Mach RPC was on the order of 100 µs; kernel copy
bandwidth ~35 MB/s per its lmbench figures).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.transport import LoopbackTransport


@dataclass(frozen=True)
class MachIpcModel:
    """Virtual-clock cost model for one Mach message.

    Small messages are physically copied through the kernel; messages
    above :attr:`vm_copy_threshold` move by virtual copy (Mach's
    copy-on-write page remapping), costing :attr:`per_page_s` per 4 KB
    page instead of a per-byte copy.  The threshold is what produces the
    paper's Figure 7 crossover: beyond it, stub marshal CPU — not kernel
    copying — dominates the round trip.
    """

    name: str
    per_message_s: float
    copy_bandwidth_bytes_per_s: float
    vm_copy_threshold: int = 8192
    per_page_s: float = 5e-6
    page_size: int = 4096

    def transfer_time(self, size_bytes):
        if size_bytes > self.vm_copy_threshold:
            pages = -(-size_bytes // self.page_size)
            return self.per_message_s + pages * self.per_page_s
        return (
            self.per_message_s
            + size_bytes / self.copy_bandwidth_bytes_per_s
        )


#: Calibrated to the paper's 100MHz Pentium running CMU Mach 3.
MACH_IPC = MachIpcModel(
    name="Mach 3 IPC",
    per_message_s=100e-6,
    copy_bandwidth_bytes_per_s=35e6,
)

#: MIG pairs its send with the receive in a single combined kernel trap
#: (mach_msg with SEND|RCV), one of the specializations the paper credits
#: for MIG's small-message advantage.  The Figure 7 harness uses this
#: model for MIG-generated stubs.
MACH_IPC_COMBINED = MachIpcModel(
    name="Mach 3 IPC (combined send/receive trap)",
    per_message_s=50e-6,
    copy_bandwidth_bytes_per_s=35e6,
)


class MachIpcTransport(LoopbackTransport):
    """Dispatch behind a simulated Mach IPC hop (one per direction)."""

    def __init__(self, dispatch, impl, model=MACH_IPC):
        super().__init__(dispatch, impl)
        self.model = model

    def _carry(self, message):
        self.simulated_seconds += self.model.transfer_time(len(message))
        return super()._carry(message)
