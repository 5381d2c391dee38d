"""Simulated Fluke kernel IPC.

Fluke IPC (paper section 3.2) passes the first several message words in
machine registers; small messages never touch memory at all.  The model
here peels :data:`REGISTER_WORDS` words off each message as the "register
window" — transferred at a fixed, very low cost — and charges only the
remainder against the kernel's copy path.  This reproduces the property
the paper exploits: small-message round trips approach the bare kernel
trap cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.encoding.fluke import REGISTER_WORDS
from repro.runtime.transport import LoopbackTransport


@dataclass(frozen=True)
class FlukeIpcModel:
    """Virtual-clock cost model for one Fluke IPC transfer."""

    name: str
    per_message_s: float
    copy_bandwidth_bytes_per_s: float
    register_bytes: int = REGISTER_WORDS * 4

    def transfer_time(self, size_bytes):
        buffered = max(0, size_bytes - self.register_bytes)
        return self.per_message_s + buffered / self.copy_bandwidth_bytes_per_s


#: Fluke's IPC path was several times leaner than Mach's.
FLUKE_IPC = FlukeIpcModel(
    name="Fluke IPC",
    per_message_s=20e-6,
    copy_bandwidth_bytes_per_s=35e6,
)


class FlukeIpcTransport(LoopbackTransport):
    """Dispatch behind a simulated Fluke IPC hop.

    The register window is simulated concretely as well: the first words of
    each message are carried in a Python list (the "registers") and
    reassembled on the far side, exercising the same code path a real
    register-window transport would.
    """

    def __init__(self, dispatch, impl, model=FLUKE_IPC):
        super().__init__(dispatch, impl)
        self.model = model

    def _carry(self, message):
        """Split into (registers, buffer) and reassemble — the simulated
        kernel path."""
        window = self.model.register_bytes
        self.simulated_seconds += self.model.transfer_time(len(message))
        return super()._carry(
            bytes(message[:window]) + bytes(message[window:]))
