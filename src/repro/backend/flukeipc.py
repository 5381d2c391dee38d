"""The Fluke kernel-IPC back end.

Fluke IPC moves the first several message words in machine registers
(paper, "Specialized Transports"), so the encoding is maximally lean: a
single opcode word followed by fully packed little-endian data with no
alignment padding.  Replies carry no header at all — the kernel pairs them
with their requests.  The register-window transfer itself is modelled by
:class:`repro.runtime.flukeipc.FlukeIpcPair`, which peels
``REGISTER_WORDS`` words off the front of every message.
"""

from __future__ import annotations

from repro.backend.base import OptimizingBackEnd, procedure_number
from repro.encoding import FLUKE


class FlukeBackEnd(OptimizingBackEnd):
    """Minimal-overhead stubs for same-host Fluke IPC."""

    name = "fluke"
    wire_format = FLUKE
    envelope = "fluke"

    def demux_key(self, presc, stub):
        return procedure_number(presc, stub)

    def client_ctx_expr(self, stub):
        return "None"
