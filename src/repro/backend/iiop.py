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
name — is baked into a constant header template, written from the GIOP
walk in :mod:`repro.envelopes` that reads it back; only the request id and
the message size are patched at runtime.
"""

from __future__ import annotations

from repro import envelopes
from repro.backend.base import OptimizingBackEnd
from repro.encoding import CDR_BE, CDR_LE


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

    # Foreign peers may send service contexts, so body offsets are not
    # static on the receive path; alignment is recomputed dynamically.
    def _request_body_offset(self, presc, stub):
        return None

    def _reply_body_offset(self, presc, stub):
        return None

    def demux_key(self, presc, stub):
        return stub.wire_name.encode("latin-1")

    unknown_op_code = "bad_operation"

    def emit_reply_error_decoder(self, w, presc):
        # Its text depends only on the byte order: compiled once per
        # process (repro.envelopes.system_exception), not at each load.
        w.blank()
        w.line("from repro.backend.stubrt import _u_system_exception_%s"
               " as _u_system_exception"
               % ("le" if self.wire_format.endian == "<" else "be"))

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
        with w.block("def encode_error_reply(d, error, b):"):
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
            with w.block("if not _two:"):
                w.line("return False")
            w.line("from repro.envelopes import refusal, write_error")
            w.line("write_error(b, 'giop', _rid, *refusal(error, 'giop'),"
                   " e=%r)" % endian)
            w.line("return True")
        w.blank()
