"""The CORBA IIOP (GIOP 1.0 over TCP) back end.

Requests carry the GIOP magic/version/byte-order header, a Request header
(service context, request id, response-expected flag, object key, operation
name, principal), then the CDR-encoded arguments; replies carry the Reply
header whose ``reply_status`` word doubles as this compiler's reply-union
discriminator (``0`` = NO_EXCEPTION, ``n`` = the n-th declared user
exception — a simplification of GIOP's repository-id-tagged exception
bodies, wire-compatible within this implementation only and noted in
DESIGN.md).

Everything static per operation — including the object key and operation
name — is baked into a constant header template; only the request id and
the message size are patched at runtime, so CDR body marshaling starts at a
statically known offset.
"""

from __future__ import annotations

import struct

from repro import envelopes
from repro.backend.base import HeaderSpec, OptimizingBackEnd
from repro.encoding import CDR_BE, CDR_LE

GIOP_REQUEST = 0
GIOP_REPLY = 1
GIOP_MESSAGE_ERROR = 6


def _pad4(length):
    return -length % 4


class IiopBackEnd(OptimizingBackEnd):
    """GIOP 1.0 / CDR stubs."""

    name = "iiop"
    envelope = "giop"

    def __init__(self, little_endian=False):
        self.wire_format = CDR_LE if little_endian else CDR_BE
        self.little_endian = little_endian

    # ------------------------------------------------------------------

    def object_key(self, presc):
        """The object key our stubs place in every request."""
        return presc.interface_name.encode("latin-1")

    def interface_identity(self, presc):
        return (self.object_key(presc),)

    def _giop_header(self, message_type):
        return b"GIOP" + bytes(
            (1, 0, 1 if self.little_endian else 0, message_type)
        ) + b"\0\0\0\0"  # message size, patched

    def request_header(self, presc, stub):
        endian = self.wire_format.endian
        key = self.object_key(presc)
        operation = stub.operation_name.encode("latin-1") + b"\0"
        parts = [self._giop_header(GIOP_REQUEST)]
        parts.append(struct.pack(endian + "I", 0))     # service contexts
        request_id_offset = 16
        parts.append(struct.pack(endian + "I", 0))     # request id (patched)
        parts.append(bytes((0 if stub.oneway else 1,)))  # response_expected
        parts.append(b"\0" * _pad4(21))                # align object key len
        parts.append(struct.pack(endian + "I", len(key)))
        parts.append(key)
        parts.append(b"\0" * _pad4(len(key)))
        parts.append(struct.pack(endian + "I", len(operation)))
        parts.append(operation)
        parts.append(b"\0" * _pad4(len(operation)))
        parts.append(struct.pack(endian + "I", 0))     # principal (empty)
        template = b"".join(parts)
        return HeaderSpec(
            template,
            patches=((request_id_offset, endian + "I", "_ctx"),),
            size_patch=(8, endian + "I", 12),
        )

    def reply_header(self, presc, stub):
        endian = self.wire_format.endian
        template = self._giop_header(GIOP_REPLY) + struct.pack(
            endian + "II", 0, 0  # service contexts, request id (patched)
        )
        # The reply_status word that follows is emitted as the reply
        # union's discriminator by the shared library.
        return HeaderSpec(
            template,
            patches=((16, endian + "I", "_ctx"),),
            size_patch=(8, endian + "I", 12),
        )

    # Foreign peers may send service contexts, so body offsets are not
    # static on the receive path; alignment is recomputed dynamically.
    def _request_body_offset(self, presc, stub):
        return None

    def _reply_body_offset(self, presc, stub):
        return None

    def demux_key(self, presc, stub):
        return stub.operation_name.encode("latin-1")

    unknown_op_code = "bad_operation"

    def emit_reply_error_decoder(self, w, presc):
        w.blank()
        with w.block("def _u_system_exception(d, o):"):
            w.line('"""Decode a system-exception reply body; returns the')
            w.line('RemoteCallError for the caller to raise."""')
            w.paste(envelopes.render(
                "giop", "system_exception", self.wire_format.endian,
                remote="return %s"))

    def reply_error_tail_ops(self, presc):
        from repro.mir import ops as m

        return [
            m.Branch(arms=[m.BranchArm(
                cond="_d == %d" % envelopes.SYSTEM_EXCEPTION_STATUS,
                body=[m.Raise(value_expr="_u_system_exception(d, o)")],
            )]),
            m.Raise(
                error="UnmarshalError",
                message_expr="'bad reply status %r' % (_d,)",
                literal=False,
            ),
        ]

    def emit_error_reply(self, w, presc):
        endian = self.wire_format.endian
        w.line("_H_MSGERR = %r" % self._giop_header(GIOP_MESSAGE_ERROR))
        w.line("_H_ERRREP = %r" % self._giop_header(GIOP_REPLY))
        w.blank()
        w.line("def encode_error_reply(d, error, b):")
        w.indent()
        w.line('"""GIOP error reply for a request dispatch refused.')
        w.line('')
        w.line('A parseable two-way Request gets a system-exception')
        w.line('Reply (CORBA::MARSHAL / BAD_OPERATION / TRANSIENT /')
        w.line('UNKNOWN); anything else that still looks like GIOP-bound')
        w.line('traffic gets a MessageError.  Returns False only for')
        w.line('oneway requests (no reply may be sent)."""')
        w.line("_rid = None")
        w.line("_two = True")
        with w.block("try:"):
            w.paste(envelopes.render("giop", "request", endian,
                                     wants=("two",), upto="id"))
            w.line("_rid = _ctx")
        with w.block("except _HDR_ERRORS:"):
            w.line("pass")
        w.line("if _rid is None:")
        w.indent()
        w.line("# Header unusable: answer with GIOP MessageError.")
        w.line("_o0 = b.reserve(12)")
        w.line("b.data[_o0:_o0 + 12] = _H_MSGERR")
        w.line("return True")
        w.dedent()
        w.line("if not _two:")
        w.indent()
        w.line("return False")
        w.dedent()
        w.line("if isinstance(error, OverloadError):")
        w.indent()
        w.line("_id = b'IDL:omg.org/CORBA/TRANSIENT:1.0\\x00'")
        w.line("_cmp = 1  # COMPLETED_NO")
        w.dedent()
        w.line("elif getattr(error, 'code', None) == 'bad_operation':")
        w.indent()
        w.line("_id = b'IDL:omg.org/CORBA/BAD_OPERATION:1.0\\x00'")
        w.line("_cmp = 1")
        w.dedent()
        w.line("elif getattr(error, 'code', None) == 'object_not_exist':")
        w.indent()
        w.line("_id = b'IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0\\x00'")
        w.line("_cmp = 1")
        w.dedent()
        w.line("elif getattr(error, 'code', None) == 'no_permission':")
        w.indent()
        w.line("_id = b'IDL:omg.org/CORBA/NO_PERMISSION:1.0\\x00'")
        w.line("_cmp = 1")
        w.dedent()
        w.line("elif isinstance(error, (WireFormatError, UnmarshalError,"
               " DispatchError)):")
        w.indent()
        w.line("_id = b'IDL:omg.org/CORBA/MARSHAL:1.0\\x00'")
        w.line("_cmp = 1")
        w.dedent()
        w.line("else:")
        w.indent()
        w.line("_id = b'IDL:omg.org/CORBA/UNKNOWN:1.0\\x00'")
        w.line("_cmp = 2  # COMPLETED_MAYBE")
        w.dedent()
        w.line("_o0 = b.reserve(24)")
        w.line("b.data[_o0:_o0 + 12] = _H_ERRREP")
        w.line("_pack_into('%sIII', b.data, _o0 + 12, 0, _rid, %d)"
               % (endian, envelopes.SYSTEM_EXCEPTION_STATUS))
        w.line("_n = len(_id)")
        w.line("_p = -_n % 4")
        w.line("_o1 = b.reserve(4 + _n + _p + 8)")
        w.line("_pack_into('%sI', b.data, _o1, _n)" % endian)
        w.line("b.data[_o1 + 4:_o1 + 4 + _n] = _id")
        w.line("if _p:")
        w.indent()
        w.line("b.data[_o1 + 4 + _n:_o1 + 4 + _n + _p] = _Z[:_p]")
        w.dedent()
        w.line("_pack_into('%sII', b.data, _o1 + 4 + _n + _p, 0, _cmp)"
               % endian)
        w.line("_pack_into('%sI', b.data, _o0 + 8, b.length - 12)"
               % endian)
        w.line("return True")
        w.dedent()
        w.blank()
