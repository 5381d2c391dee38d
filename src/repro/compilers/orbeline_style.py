"""The ORBeline-style baseline compiler.

Visigenic's ORBeline was a commercial CORBA ORB whose compiled C++ stubs
marshal by streaming each primitive through a CDR stream object and pass
through a significant ORB runtime layer on every call (paper, footnote to
Figure 4).  This reproduction generates stubs whose bodies perform one
stream-method call per datum (:mod:`repro.compilers.cdr_rt`), per-element
loops for arrays of non-octet types, and an explicit runtime-layer hop in
the client path.  The walk is
:class:`repro.compilers.per_datum.PerDatumBackEnd`'s; this module spells
it in stream-method calls.  Wire bytes are identical to Flick's IIOP back
end.
"""

from __future__ import annotations

from repro.errors import BackEndError
from repro.backend.iiop import IiopBackEnd
from repro.compilers.per_datum import PerDatumBackEnd

#: struct-format char (or char/bool conversion) -> CDR stream method suffix.
_ATOM_METHODS = {
    "B": "octet",
    "h": "short", "H": "ushort",
    "i": "long", "I": "ulong",
    "q": "longlong", "Q": "ulonglong",
    "f": "float", "d": "double",
    "char": "char", "bool": "boolean",
}


class OrbelineStyleCompiler(PerDatumBackEnd, IiopBackEnd):
    """Visigenic ORBeline reproduced: CDR stream calls plus ORB layers."""

    name = "orbeline"
    origin = "Visigenic"

    runtime_import = ("from repro.compilers.cdr_rt import CdrOutStream,"
                      " CdrInStream")
    library = "_s.%s_%s"
    lead = {"put": "", "get": ""}
    stream = {"put": "_s", "get": "_s"}
    got = "%s"
    offset = "_s.offset"
    prefix = "_cdr"
    word = "ulong"
    opaque = "octets"
    aggregate_routines = False
    string_refusal = ("the ORBeline baseline supports only the standard"
                      " CORBA string presentation")
    style = "CDR stream method per datum"

    def routine(self, codec):
        name = _ATOM_METHODS.get(codec.conversion) \
            or _ATOM_METHODS.get(codec.format)
        if name is None:
            raise BackEndError(
                "CDR stream has no method for %r" % codec.format)
        return name

    def _emit_preamble(self, w, presc):
        super()._emit_preamble(w, presc)
        w.line("def _orb_runtime_layer(request):")
        w.indent()
        w.line('"""The ORB core every call passes through (threading,')
        w.line("interceptors, policy checks in the real product).\"\"\"")
        w.line("return request")
        w.dedent()
        w.blank()

    def declare_header(self, w, stub, kind, spec):
        w.line("%s = %r" % (self._header_const_name(stub, kind),
                            spec.template))

    def open_message(self, w, stub, kind, spec):
        """The header template copied, its dynamic fields patched, and a
        stream opened after it."""
        size = len(spec.template)
        w.line("_o0 = b.reserve(%d)" % size)
        w.line("b.data[_o0:_o0 + %d] = %s"
               % (size, self._header_const_name(stub, kind)))
        for offset, fmt_text, expr in spec.patches:
            w.line("_pack_into(%r, b.data, _o0 + %d, %s)"
                   % (fmt_text, offset, expr))
        w.line("_s = CdrOutStream(b, %r)" % self.little_endian)

    def close_message(self, w, spec):
        if spec.size_patch is not None:
            offset, fmt_text, delta = spec.size_patch
            w.line("_pack_into(%r, b.data, _o0 + %d, b.length - %d)"
                   % (fmt_text, offset, delta))

    def open_input(self, w):
        w.line("_s = CdrInStream(d, o, %r)" % self.little_endian)

    def client_ctx_expr(self, stub):
        # Every invocation hops through the ORB core, as the paper notes
        # for ORBeline and ILU ("function calls to significant runtime
        # layers").
        return "_orb_runtime_layer(self._next_id())"
