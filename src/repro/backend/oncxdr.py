"""The ONC RPC / XDR back end.

Messages follow RFC 1831: a call header (xid, message type CALL, RPC
version 2, program, version, procedure, null credentials and verifier)
followed by the XDR-encoded arguments, and a reply header (xid, REPLY,
MSG_ACCEPTED, null verifier, SUCCESS) followed by the XDR-encoded result.
The header is a 40-byte (24-byte for replies) constant template per
operation, written from the RFC 1831 walk in :mod:`repro.envelopes` that
reads it back, with the xid patched in.  TCP record marking is the transport's
job (:mod:`repro.runtime`).
"""

from __future__ import annotations

from repro import envelopes
from repro.backend.base import OptimizingBackEnd, procedure_number
from repro.encoding import XDR

#: Fallback program/version when an interface has no ONC code (e.g. an
#: interface that came from CORBA IDL but is deployed over ONC RPC).
DEFAULT_PROGRAM = 0x20000000
DEFAULT_VERSION = 1


def interface_program(presc):
    """The (program, version) pair identifying *presc* on the wire."""
    code = presc.interface_code
    if isinstance(code, tuple) and len(code) == 2:
        return code
    return (DEFAULT_PROGRAM, DEFAULT_VERSION)


class OncXdrBackEnd(OptimizingBackEnd):
    """ONC RPC messages in XDR over stream or datagram transports."""

    name = "oncrpc-xdr"
    wire_format = XDR
    envelope = "oncrpc"

    def interface_identity(self, presc):
        return interface_program(presc)

    def demux_key(self, presc, stub):
        return procedure_number(presc, stub)

    unknown_op_code = "proc_unavail"

    def emit_error_reply(self, w, presc):
        version = interface_program(presc)[1]
        with w.block("def encode_error_reply(d, error, b):"):
            w.line('"""RFC 1831 error reply for a request dispatch refused.')
            w.line('')
            w.line('Returns True when b holds a reply to send, False when')
            w.line('the request cannot be answered (not a call, or too')
            w.line('short to carry an xid)."""')
            with w.block("try:"):
                w.paste(envelopes.render("oncrpc", "request", ">",
                                         upto="id"))
            with w.block("except _HDR_ERRORS:"):
                w.line("return False")
            w.line("from repro.envelopes import refusal, write_error")
            w.line("write_error(b, 'oncrpc', _ctx,"
                   " *refusal(error, 'oncrpc'), versions=(%d, %d))"
                   % (version, version))
            w.line("return True")
        w.blank()
