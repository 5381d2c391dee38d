"""The ORBeline-style baseline compiler.

Visigenic's ORBeline was a commercial CORBA ORB whose compiled C++ stubs
marshal by streaming each primitive through a CDR stream object and pass
through a significant ORB runtime layer on every call (paper, footnote to
Figure 4).  This reproduction generates stubs whose bodies perform one
stream-method call per datum (:mod:`repro.compilers.cdr_rt`), per-element
loops for arrays of non-octet types, and an explicit runtime-layer hop in
the client path.  Wire bytes are identical to Flick's IIOP back end.
"""

from __future__ import annotations

from repro.errors import BackEndError
from repro.backend.base import mangle
from repro.backend.iiop import IiopBackEnd
from repro.core.options import OptFlags
from repro.pres import nodes as p

BASELINE_FLAGS = OptFlags.all_off().but(reuse_buffers=True)

_ATOM_METHODS = {
    "B": "octet",
    "h": "short", "H": "ushort",
    "i": "long", "I": "ulong",
    "q": "longlong", "Q": "ulonglong",
    "f": "float", "d": "double",
}


class _CdrStreamEmitter:
    """Emits one stream-method call per datum, C++-ORB style."""

    def __init__(self, writer, presc, wire_format):
        self.w = writer
        self.presc = presc
        self.fmt = wire_format
        self._functions_done = set()
        self._pending = []

    def _method(self, pres_or_mint):
        from repro.mint.types import MintType

        mint = (
            pres_or_mint
            if isinstance(pres_or_mint, MintType)
            else pres_or_mint.mint
        )
        mint = self.presc.mint_registry.resolve(mint)
        codec = self.fmt.atom_codec(mint)
        if codec.conversion == "char":
            return "char"
        if codec.conversion == "bool":
            return "boolean"
        try:
            return _ATOM_METHODS[codec.format]
        except KeyError:
            raise BackEndError(
                "CDR stream has no method for %r" % codec.format
            ) from None

    def _named_function(self, name, kind):
        function = "_cdr_%s_%s" % (kind, mangle(name))
        key = (kind, name)
        if key not in self._functions_done:
            self._functions_done.add(key)
            self._pending.append((kind, name, function))
        return function

    def drain(self):
        w = self.w
        while self._pending:
            kind, name, function = self._pending.pop(0)
            pres = self.presc.pres_registry[name]
            if isinstance(pres, p.PresRef):
                pres = self.presc.pres_registry[pres.name]
            if kind == "put":
                w.line("def %s(_s, v):" % function)
                w.indent()
                self.emit_put(pres, "v")
                w.dedent()
            else:
                w.line("def %s(_s):" % function)
                w.indent()
                value = self.emit_get(pres)
                w.line("return %s" % value)
                w.dedent()
            w.blank()

    # -- marshal -----------------------------------------------------------

    def emit_put(self, pres, expr):
        w = self.w
        if isinstance(pres, p.PresVoid):
            w.line("pass")
            return
        if isinstance(pres, (p.PresDirect, p.PresEnum)):
            w.line("_s.put_%s(%s)" % (self._method(pres), expr))
            return
        if isinstance(pres, p.PresRef):
            w.line("%s(_s, %s)"
                   % (self._named_function(pres.name, "put"), expr))
            return
        if isinstance(pres, p.PresString):
            if pres.carries_length:
                raise BackEndError(
                    "the ORBeline baseline supports only the standard"
                    " CORBA string presentation"
                )
            w.line("_s.put_string(%s, %r)" % (expr, pres.bound))
            return
        if isinstance(pres, p.PresBytes):
            if pres.fixed_length is not None:
                w.line("_s.put_octets_fixed(%s, %d)"
                       % (expr, pres.fixed_length))
            else:
                w.line("_s.put_octets(%s, %r)" % (expr, pres.bound))
            return
        if isinstance(pres, p.PresFixedArray):
            element = self.w.temp("_e")
            w.line("if len(%s) != %d:" % (expr, pres.length))
            w.indent()
            w.line("raise MarshalError('fixed array needs %d elements')"
                   % pres.length)
            w.dedent()
            w.line("for %s in %s:" % (element, expr))
            w.indent()
            self.emit_put(pres.element, element)
            w.dedent()
            return
        if isinstance(pres, p.PresCountedArray):
            if pres.bound is not None:
                w.line("if len(%s) > %d:" % (expr, pres.bound))
                w.indent()
                w.line("raise MarshalError('array exceeds bound %d')"
                       % pres.bound)
                w.dedent()
            w.line("_s.put_ulong(len(%s))" % expr)
            element = self.w.temp("_e")
            w.line("for %s in %s:" % (element, expr))
            w.indent()
            self.emit_put(pres.element, element)
            w.dedent()
            return
        if isinstance(pres, p.PresOptPtr):
            w.line("if %s is None:" % expr)
            w.indent()
            w.line("_s.put_ulong(0)")
            w.dedent()
            w.line("else:")
            w.indent()
            w.line("_s.put_ulong(1)")
            self.emit_put(pres.element, expr)
            w.dedent()
            return
        if isinstance(pres, (p.PresStruct, p.PresException)):
            for struct_field in pres.fields:
                self.emit_put(
                    struct_field.pres, "%s.%s" % (expr, struct_field.name)
                )
            if not pres.fields:
                w.line("pass")
            return
        if isinstance(pres, p.PresUnion):
            disc = w.temp("_d")
            payload = w.temp("_u")
            w.line("%s, %s = %s" % (disc, payload, expr))
            w.line("_s.put_%s(%s)"
                   % (self._method(pres.mint.discriminator), disc))
            self._emit_union_arms(
                pres, disc,
                lambda arm: self.emit_put(arm.pres, payload),
                "MarshalError",
            )
            return
        raise BackEndError("ORBeline-style cannot marshal %r"
                           % type(pres).__name__)

    def _emit_union_arms(self, pres, disc, emit_arm, error_class,
                         assign=None):
        w = self.w
        first = True
        default_arm = None
        for arm in pres.arms:
            if arm.is_default:
                default_arm = arm
                continue
            condition = (
                "%s == %r" % (disc, arm.labels[0])
                if len(arm.labels) == 1
                else "%s in %r" % (disc, tuple(arm.labels))
            )
            w.line("%s %s:" % ("if" if first else "elif", condition))
            first = False
            w.indent()
            emit_arm(arm)
            w.dedent()
        w.line("else:" if not first else "if True:")
        w.indent()
        if default_arm is not None:
            emit_arm(default_arm)
        else:
            w.line("raise %s('no union arm for ' + repr(%s))"
                   % (error_class, disc))
        w.dedent()

    # -- unmarshal -----------------------------------------------------------

    def emit_get(self, pres):
        w = self.w
        if isinstance(pres, p.PresVoid):
            return "None"
        if isinstance(pres, (p.PresDirect, p.PresEnum)):
            var = w.temp("_v")
            w.line("%s = _s.get_%s()" % (var, self._method(pres)))
            return var
        if isinstance(pres, p.PresRef):
            var = w.temp("_v")
            w.line("%s = %s(_s)"
                   % (var, self._named_function(pres.name, "get")))
            return var
        if isinstance(pres, p.PresString):
            var = w.temp("_v")
            w.line("%s = _s.get_string(%r)" % (var, pres.bound))
            return var
        if isinstance(pres, p.PresBytes):
            var = w.temp("_v")
            if pres.fixed_length is not None:
                w.line("%s = _s.get_octets_fixed(%d)"
                       % (var, pres.fixed_length))
            else:
                w.line("%s = _s.get_octets(%r)" % (var, pres.bound))
            return var
        if isinstance(pres, p.PresFixedArray):
            var = w.temp("_v")
            w.line("%s = []" % var)
            w.line("for _ in range(%d):" % pres.length)
            w.indent()
            element = self.emit_get(pres.element)
            w.line("%s.append(%s)" % (var, element))
            w.dedent()
            return var
        if isinstance(pres, p.PresCountedArray):
            count = w.temp("_n")
            w.line("%s = _s.get_ulong()" % count)
            if pres.bound is not None:
                w.line("if %s > %d:" % (count, pres.bound))
                w.indent()
                w.line("raise UnmarshalError('array exceeds bound %d')"
                       % pres.bound)
                w.dedent()
            var = w.temp("_v")
            w.line("%s = []" % var)
            w.line("for _ in range(%s):" % count)
            w.indent()
            element = self.emit_get(pres.element)
            w.line("%s.append(%s)" % (var, element))
            w.dedent()
            return var
        if isinstance(pres, p.PresOptPtr):
            flag = w.temp("_n")
            var = w.temp("_v")
            w.line("%s = _s.get_ulong()" % flag)
            w.line("if %s == 0:" % flag)
            w.indent()
            w.line("%s = None" % var)
            w.dedent()
            w.line("else:")
            w.indent()
            element = self.emit_get(pres.element)
            w.line("%s = %s" % (var, element))
            w.dedent()
            return var
        if isinstance(pres, p.PresStruct):
            fields = [self.emit_get(f.pres) for f in pres.fields]
            var = w.temp("_v")
            w.line("%s = %s(%s)"
                   % (var, mangle(pres.record_name), ", ".join(fields)))
            return var
        if isinstance(pres, p.PresException):
            fields = [self.emit_get(f.pres) for f in pres.fields]
            var = w.temp("_v")
            w.line("%s = %s(%s)"
                   % (var, mangle(pres.class_name), ", ".join(fields)))
            return var
        if isinstance(pres, p.PresUnion):
            disc = w.temp("_d")
            w.line("%s = _s.get_%s()"
                   % (disc, self._method(pres.mint.discriminator)))
            var = w.temp("_v")

            def arm_body(arm):
                payload = self.emit_get(arm.pres)
                w.line("%s = (%s, %s)" % (var, disc, payload))

            self._emit_union_arms(pres, disc, arm_body, "UnmarshalError")
            return var
        raise BackEndError("ORBeline-style cannot unmarshal %r"
                           % type(pres).__name__)


class OrbelineStyleCompiler(IiopBackEnd):
    """Visigenic ORBeline reproduced: CDR stream calls plus ORB layers."""

    name = "orbeline"
    origin = "Visigenic"
    baseline_flags = BASELINE_FLAGS
    sectioned = False  # the module is one piece and loads whole

    def generate(self, presc, flags=None, renderer="py"):
        return super().generate(presc, self.baseline_flags, renderer)

    def _emit_codec_functions(self, w, presc, flags, metadata):
        # Rival code styles bypass the marshal IR and write codec text
        # directly through the CDR stream emitter.
        return self._emit_codec_functions_writer(w, presc, flags, metadata)

    def _emit_preamble(self, w, presc):
        super()._emit_preamble(w, presc)
        w.line("from repro.compilers.cdr_rt import CdrOutStream, CdrInStream")
        w.blank()
        w.line("def _orb_runtime_layer(request):")
        w.indent()
        w.line('"""The ORB core every call passes through (threading,')
        w.line("interceptors, policy checks in the real product).\"\"\"")
        w.line("return request")
        w.dedent()
        w.blank()
        self._stream = _CdrStreamEmitter(w, presc, self.wire_format)

    def _emit_request_marshal(self, w, presc, stub, flags, out_of_line,
                              op_meta):
        spec = self.request_header(presc, stub)
        const = self._header_const_name(stub, "req")
        w.line("%s = %r" % (const, spec.template))
        in_parameters = stub.in_parameters()
        arg_names = ["_a%d" % index for index in range(len(in_parameters))]
        w.line("def _m_req_%s(b, _ctx%s):"
               % (stub.operation_name,
                  ", " + ", ".join(arg_names) if arg_names else ""))
        w.indent()
        size = len(spec.template)
        w.line("_o0 = b.reserve(%d)" % size)
        w.line("b.data[_o0:_o0 + %d] = %s" % (size, const))
        for offset, fmt_text, expr in spec.patches:
            w.line("_pack_into(%r, b.data, _o0 + %d, %s)"
                   % (fmt_text, offset, expr))
        w.line("_s = CdrOutStream(b, %r)" % self.little_endian)
        for parameter, arg_name in zip(in_parameters, arg_names):
            self._stream.emit_put(parameter.pres, arg_name)
        if spec.size_patch is not None:
            offset, fmt_text, delta = spec.size_patch
            w.line("_pack_into(%r, b.data, _o0 + %d, b.length - %d)"
                   % (fmt_text, offset, delta))
        w.dedent()
        w.blank()
        op_meta["style"] = "CDR stream method per datum"

    def _emit_request_unmarshal(self, w, presc, stub, flags, out_of_line):
        w.line("def _u_req_%s(d, o):" % stub.operation_name)
        w.indent()
        w.line("_s = CdrInStream(d, o, %r)" % self.little_endian)
        exprs = [
            self._stream.emit_get(parameter.pres)
            for parameter in stub.in_parameters()
        ]
        w.line("return (%s), _s.offset"
               % (", ".join(exprs) + "," if exprs else ""))
        w.dedent()
        w.blank()

    def _emit_reply_marshals(self, w, presc, stub, flags, out_of_line):
        spec = self.reply_header(presc, stub)
        const = self._header_const_name(stub, "rep")
        w.line("%s = %r" % (const, spec.template))
        success_arm = stub.reply_pres.arms[0]
        result_fields = success_arm.pres.fields
        args = ", ".join("_r_%s" % f.name.lstrip("_") for f in result_fields)

        def emit_common():
            size = len(spec.template)
            w.line("_o0 = b.reserve(%d)" % size)
            w.line("b.data[_o0:_o0 + %d] = %s" % (size, const))
            for offset, fmt_text, expr in spec.patches:
                w.line("_pack_into(%r, b.data, _o0 + %d, %s)"
                       % (fmt_text, offset, expr))
            w.line("_s = CdrOutStream(b, %r)" % self.little_endian)

        w.line("def _m_rep_ok_%s(b, _ctx%s):"
               % (stub.operation_name, ", " + args if args else ""))
        w.indent()
        emit_common()
        w.line("_s.put_ulong(0)")
        for struct_field in result_fields:
            self._stream.emit_put(
                struct_field.pres, "_r_%s" % struct_field.name.lstrip("_")
            )
        if spec.size_patch is not None:
            offset, fmt_text, delta = spec.size_patch
            w.line("_pack_into(%r, b.data, _o0 + %d, b.length - %d)"
                   % (fmt_text, offset, delta))
        w.dedent()
        w.blank()
        for arm in stub.reply_pres.arms[1:]:
            label = arm.labels[0]
            w.line("def _m_rep_x%d_%s(b, _ctx, _exc):"
                   % (label, stub.operation_name))
            w.indent()
            emit_common()
            w.line("_s.put_ulong(%d)" % label)
            self._stream.emit_put(arm.pres, "_exc")
            if spec.size_patch is not None:
                offset, fmt_text, delta = spec.size_patch
                w.line("_pack_into(%r, b.data, _o0 + %d, b.length - %d)"
                       % (fmt_text, offset, delta))
            w.dedent()
            w.blank()

    def _emit_reply_unmarshal(self, w, presc, stub, flags, out_of_line):
        w.line("def _u_rep_%s(d, o):" % stub.operation_name)
        w.indent()
        w.line("_s = CdrInStream(d, o, %r)" % self.little_endian)
        w.line("_d = _s.get_ulong()")
        w.line("if _d == 0:")
        w.indent()
        success_arm = stub.reply_pres.arms[0]
        exprs = [
            self._stream.emit_get(struct_field.pres)
            for struct_field in success_arm.pres.fields
        ]
        if not exprs:
            w.line("return None")
        elif len(exprs) == 1:
            w.line("return %s" % exprs[0])
        else:
            w.line("return (%s)" % ", ".join(exprs))
        w.dedent()
        for arm in stub.reply_pres.arms[1:]:
            w.line("elif _d == %d:" % arm.labels[0])
            w.indent()
            value = self._stream.emit_get(arm.pres)
            w.line("raise %s" % value)
            w.dedent()
        w.line("raise UnmarshalError('bad reply status %r' % (_d,))")
        w.dedent()
        w.blank()

    def _drain_out_of_line(self, w, presc, flags, out_of_line):
        self._stream.drain()

    def client_ctx_expr(self, stub):
        # Every invocation hops through the ORB core, as the paper notes
        # for ORBeline and ILU ("function calls to significant runtime
        # layers").
        return "_orb_runtime_layer(self._next_id())"
