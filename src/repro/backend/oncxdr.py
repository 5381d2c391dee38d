"""The ONC RPC / XDR back end.

Messages follow RFC 1831: a call header (xid, message type CALL, RPC
version 2, program, version, procedure, null credentials and verifier)
followed by the XDR-encoded arguments, and a reply header (xid, REPLY,
MSG_ACCEPTED, null verifier, SUCCESS) followed by the XDR-encoded result.
The header is a 40-byte (24-byte for replies) constant template per
operation with the xid patched in.  TCP record marking is the transport's
job (:mod:`repro.runtime`).
"""

from __future__ import annotations

import struct

from repro import envelopes
from repro.backend.base import HeaderSpec, OptimizingBackEnd
from repro.encoding import XDR

#: Fallback program/version when an interface has no ONC code (e.g. an
#: interface that came from CORBA IDL but is deployed over ONC RPC).
DEFAULT_PROGRAM = 0x20000000
DEFAULT_VERSION = 1

CALL = 0
REPLY = 1
RPC_VERSION = 2


def interface_program(presc):
    """The (program, version) pair identifying *presc* on the wire."""
    code = presc.interface_code
    if isinstance(code, tuple) and len(code) == 2:
        return code
    return (DEFAULT_PROGRAM, DEFAULT_VERSION)


def operation_number(presc, stub):
    """The procedure number for *stub* (declared, or position-derived)."""
    if isinstance(stub.request_code, int):
        return stub.request_code
    for index, other in enumerate(presc.stubs, 1):
        if other is stub:
            return index
    raise KeyError(stub.operation_name)


class OncXdrBackEnd(OptimizingBackEnd):
    """ONC RPC messages in XDR over stream or datagram transports."""

    name = "oncrpc-xdr"
    wire_format = XDR
    envelope = "oncrpc"

    def interface_identity(self, presc):
        return interface_program(presc)

    def request_header(self, presc, stub):
        program, version = interface_program(presc)
        template = struct.pack(
            ">IIIIIIIIII",
            0,                              # xid (patched)
            CALL,
            RPC_VERSION,
            program,
            version,
            operation_number(presc, stub),
            0, 0,                           # null credentials
            0, 0,                           # null verifier
        )
        return HeaderSpec(template, patches=((0, ">I", "_ctx"),))

    def reply_header(self, presc, stub):
        template = struct.pack(
            ">IIIIII",
            0,                              # xid (patched)
            REPLY,
            0,                              # MSG_ACCEPTED
            0, 0,                           # null verifier
            0,                              # accept_stat SUCCESS
        )
        return HeaderSpec(template, patches=((0, ">I", "_ctx"),))

    def demux_key(self, presc, stub):
        return operation_number(presc, stub)

    unknown_op_code = "proc_unavail"

    def emit_error_reply(self, w, presc):
        program, version = interface_program(presc)
        w.line("def encode_error_reply(d, error, b):")
        w.indent()
        w.line('"""RFC 1831 error reply for a request dispatch refused.')
        w.line('')
        w.line('Returns True when b holds a reply to send, False when')
        w.line('the request cannot be answered (not a call, or too')
        w.line('short to carry an xid)."""')
        w.line("_code = getattr(error, 'code', None)")
        with w.block("try:"):
            w.paste(envelopes.render("oncrpc", "request", ">", upto="id"))
        with w.block("except _HDR_ERRORS:"):
            w.line("return False")
        w.line("if _code == 'rpc_mismatch':")
        w.indent()
        w.line("# MSG_DENIED / RPC_MISMATCH with supported versions.")
        w.line("_o0 = b.reserve(24)")
        w.line("_pack_into('>IIIIII', b.data, _o0,"
               " _ctx, 1, 1, 0, %d, %d)" % (RPC_VERSION, RPC_VERSION))
        w.line("return True")
        w.dedent()
        w.line("if _code == 'prog_mismatch':")
        w.indent()
        w.line("# MSG_ACCEPTED / PROG_MISMATCH with supported versions.")
        w.line("_o0 = b.reserve(32)")
        w.line("_pack_into('>IIIIIIII', b.data, _o0,"
               " _ctx, 1, 0, 0, 0, 2, %d, %d)" % (version, version))
        w.line("return True")
        w.dedent()
        w.line("if _code == 'prog_unavail':")
        w.indent()
        w.line("_stat = 1")
        w.dedent()
        w.line("elif _code == 'proc_unavail':")
        w.indent()
        w.line("_stat = 3")
        w.dedent()
        w.line("elif isinstance(error, (WireFormatError, UnmarshalError,"
               " DispatchError)):")
        w.indent()
        w.line("_stat = 4  # GARBAGE_ARGS")
        w.dedent()
        w.line("else:")
        w.indent()
        w.line("_stat = 5  # SYSTEM_ERR (includes overload shedding)")
        w.dedent()
        w.line("_o0 = b.reserve(24)")
        w.line("_pack_into('>IIIIII', b.data, _o0,"
               " _ctx, 1, 0, 0, 0, _stat)")
        w.line("return True")
        w.dedent()
        w.blank()
