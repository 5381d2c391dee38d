"""The Mach 3 typed-message back end.

Messages begin with a ``mach_msg_header_t``-shaped header (bits, size,
remote port, local port, msgh_id) and carry typed data items: each array is
preceded by an 8-byte type descriptor, as MIG-generated stubs produce.
Request ids are ``MSGH_ID_BASE + procedure``; replies use the Mach
convention of ``request id + 100``.  The header is written from the Mach
walk in :mod:`repro.envelopes` that reads it back, msgh_size patched.

Unlike MIG (which cannot express arrays of non-atomic types — the paper's
Figure 7 discussion), this back end inherits the full optimizing library
and ships aggregates by flattening them behind byte descriptors.
"""

from __future__ import annotations

from repro.backend.base import OptimizingBackEnd, procedure_number
from repro.encoding import MACH

MSGH_ID_BASE = 400


def message_id(presc, stub):
    """The msgh_id identifying *stub*'s request messages.

    MIG subsystems declare their own message-id base; interfaces from
    other IDLs fall back to :data:`MSGH_ID_BASE`.
    """
    base = (
        presc.interface_code
        if isinstance(presc.interface_code, int)
        else MSGH_ID_BASE
    )
    return base + procedure_number(presc, stub)


class Mach3BackEnd(OptimizingBackEnd):
    """MIG-style typed messages between Mach ports."""

    name = "mach3"
    wire_format = MACH
    envelope = "mach3"

    def demux_key(self, presc, stub):
        return message_id(presc, stub)

    def client_ctx_expr(self, stub):
        # Mach has no per-call id in our model; the msgh_id is static, so
        # the context carries it for the reply check.
        return "None"
