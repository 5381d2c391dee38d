"""The Mach 3 typed-message back end.

Messages begin with a ``mach_msg_header_t``-shaped header (bits, size,
remote port, local port, msgh_id) and carry typed data items: each array is
preceded by an 8-byte type descriptor, as MIG-generated stubs produce.
Request ids are ``MSGH_ID_BASE + procedure``; replies use the Mach
convention of ``request id + 100``.

Unlike MIG (which cannot express arrays of non-atomic types — the paper's
Figure 7 discussion), this back end inherits the full optimizing library
and ships aggregates by flattening them behind byte descriptors.
"""

from __future__ import annotations

import struct

from repro.backend.base import (
    HeaderSpec, OptimizingBackEnd, procedure_number)
from repro.encoding import MACH

#: msgh_bits: MACH_MSGH_BITS(MACH_MSG_TYPE_COPY_SEND,
#:                           MACH_MSG_TYPE_MAKE_SEND_ONCE)
MSGH_BITS_REQUEST = 0x00001513
MSGH_BITS_REPLY = 0x00001200
MSGH_ID_BASE = 400
REPLY_ID_DELTA = 100


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

    def request_header(self, presc, stub):
        template = struct.pack(
            "<IIIII",
            MSGH_BITS_REQUEST,
            0,                       # msgh_size (patched after the body)
            0, 0,                    # remote/local ports (transport fills)
            message_id(presc, stub),
        )
        return HeaderSpec(template, size_patch=(4, "<I", 0))

    def reply_header(self, presc, stub):
        template = struct.pack(
            "<IIIII",
            MSGH_BITS_REPLY,
            0,
            0, 0,
            message_id(presc, stub) + REPLY_ID_DELTA,
        )
        return HeaderSpec(template, size_patch=(4, "<I", 0))

    def demux_key(self, presc, stub):
        return message_id(presc, stub)

    def client_ctx_expr(self, stub):
        # Mach has no per-call id in our model; the msgh_id is static, so
        # the context carries it for the reply check.
        return "None"
