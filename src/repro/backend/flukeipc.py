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

import struct

from repro.backend.base import HeaderSpec, OptimizingBackEnd
from repro.encoding import FLUKE


def operation_code(presc, stub):
    if isinstance(stub.request_code, int):
        return stub.request_code
    for index, other in enumerate(presc.stubs, 1):
        if other is stub:
            return index
    raise KeyError(stub.operation_name)


class FlukeBackEnd(OptimizingBackEnd):
    """Minimal-overhead stubs for same-host Fluke IPC."""

    name = "fluke"
    wire_format = FLUKE
    envelope = "fluke"

    def request_header(self, presc, stub):
        template = struct.pack("<I", operation_code(presc, stub))
        return HeaderSpec(template)

    def reply_header(self, presc, stub):
        return HeaderSpec(b"")

    def demux_key(self, presc, stub):
        return operation_code(presc, stub)

    def client_ctx_expr(self, stub):
        return "None"
