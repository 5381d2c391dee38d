"""The rpcgen-style baseline compiler (and its PowerRPC derivative).

Generates stubs in the style of Sun's rpcgen: the call header is written
field by field, every atomic datum is marshaled by its own ``xdr_*``
library routine (each with its own buffer check — see
:mod:`repro.compilers.xdr_rt`), aggregates are per-element routine calls,
every named type gets a pair of ``_xdr_put_/_xdr_get_`` functions, and the
server dispatch compares procedure numbers down an if-chain.

The generated module exposes the same public surface as Flick's modules
(``_m_req_*``, ``_u_req_*``, client/servant classes, ``dispatch``), and
its wire bytes are identical to Flick's ONC/XDR back end, so the
benchmark harness can drive every compiler uniformly and messages
interoperate across compilers.
"""

from __future__ import annotations

from repro.errors import BackEndError
from repro.backend.base import mangle
from repro.backend.oncxdr import OncXdrBackEnd
from repro.core.options import OptFlags
from repro.pres import nodes as p

#: rpcgen has no optimizations to toggle; this is its fixed behaviour.
BASELINE_FLAGS = OptFlags.all_off().but(reuse_buffers=True)

#: struct-format char -> xdr_rt routine suffix for non-converted atoms.
_ATOM_FNS = {
    "i": "int", "I": "uint", "q": "hyper", "Q": "uhyper",
    "f": "float", "d": "double",
}


class _NaiveXdrEmitter:
    """Emits per-datum xdr_rt calls and per-named-type functions."""

    def __init__(self, writer, presc):
        self.w = writer
        self.presc = presc
        self._functions_done = set()
        self._pending = []
        self._anon_counter = 0

    # ------------------------------------------------------------------

    def _codec(self, pres_or_mint):
        from repro.encoding import XDR
        from repro.mint.types import MintType

        mint = (
            pres_or_mint
            if isinstance(pres_or_mint, MintType)
            else pres_or_mint.mint
        )
        mint = self.presc.mint_registry.resolve(mint)
        codec = XDR.atom_codec(mint)
        if codec.conversion == "char":
            return "char"
        if codec.conversion == "bool":
            return "bool"
        return _ATOM_FNS[codec.format]

    # -- function references for element positions ----------------------

    def put_ref(self, pres):
        """An expression naming a (buffer, value) marshal routine."""
        if isinstance(pres, (p.PresDirect, p.PresEnum)):
            return "_rt.put_%s" % self._codec(pres)
        if isinstance(pres, p.PresRef):
            return self._named_function(pres.name, "put")
        return self._anon_function(pres, "put")

    def get_ref(self, pres):
        if isinstance(pres, (p.PresDirect, p.PresEnum)):
            return "_rt.get_%s" % self._codec(pres)
        if isinstance(pres, p.PresRef):
            return self._named_function(pres.name, "get")
        return self._anon_function(pres, "get")

    def _named_function(self, name, kind):
        function = "_xdr_%s_%s" % (kind, mangle(name))
        key = (kind, name)
        if key not in self._functions_done:
            self._functions_done.add(key)
            self._pending.append((kind, name, None, function))
        return function

    def _anon_function(self, pres, kind):
        self._anon_counter += 1
        function = "_xdr_%s_anon%d" % (kind, self._anon_counter)
        self._pending.append((kind, None, pres, function))
        return function

    def drain(self):
        """Emit all queued type marshal/unmarshal functions."""
        w = self.w
        while self._pending:
            kind, name, pres, function = self._pending.pop(0)
            if pres is None:
                pres = self.presc.pres_registry[name]
                if isinstance(pres, p.PresRef):
                    pres = self.presc.pres_registry[pres.name]
            if kind == "put":
                w.line("def %s(b, v):" % function)
                w.indent()
                self.emit_put(pres, "v")
                w.dedent()
            else:
                w.line("def %s(d, o):" % function)
                w.indent()
                value = self.emit_get(pres)
                w.line("return %s, o" % value)
                w.dedent()
            w.blank()

    # -- marshal statements ----------------------------------------------

    def emit_put(self, pres, expr):
        w = self.w
        if isinstance(pres, p.PresVoid):
            w.line("pass")
            return
        if isinstance(pres, (p.PresDirect, p.PresEnum)):
            w.line("_rt.put_%s(b, %s)" % (self._codec(pres), expr))
            return
        if isinstance(pres, p.PresRef):
            w.line("%s(b, %s)" % (self._named_function(pres.name, "put"), expr))
            return
        if isinstance(pres, p.PresString):
            if pres.carries_length:
                raise BackEndError(
                    "the rpcgen baseline supports only the standard"
                    " string presentation"
                )
            w.line("_rt.put_string(b, %s, %r)" % (expr, pres.bound))
            return
        if isinstance(pres, p.PresBytes):
            if pres.fixed_length is not None:
                w.line("_rt.put_opaque_fixed(b, %s, %d)"
                       % (expr, pres.fixed_length))
            else:
                w.line("_rt.put_opaque(b, %s, %r)" % (expr, pres.bound))
            return
        if isinstance(pres, p.PresFixedArray):
            w.line("_rt.put_vector(b, %s, %d, %s)"
                   % (expr, pres.length, self.put_ref(pres.element)))
            return
        if isinstance(pres, p.PresCountedArray):
            w.line("_rt.put_array(b, %s, %s, %r)"
                   % (expr, self.put_ref(pres.element), pres.bound))
            return
        if isinstance(pres, p.PresOptPtr):
            w.line("_rt.put_pointer(b, %s, %s)"
                   % (expr, self.put_ref(pres.element)))
            return
        if isinstance(pres, p.PresStruct):
            for struct_field in pres.fields:
                self.emit_put(
                    struct_field.pres, "%s.%s" % (expr, struct_field.name)
                )
            if not pres.fields:
                w.line("pass")
            return
        if isinstance(pres, p.PresException):
            for struct_field in pres.fields:
                self.emit_put(
                    struct_field.pres, "%s.%s" % (expr, struct_field.name)
                )
            if not pres.fields:
                w.line("pass")
            return
        if isinstance(pres, p.PresUnion):
            self._emit_put_union(pres, expr)
            return
        raise BackEndError("rpcgen-style cannot marshal %r"
                           % type(pres).__name__)

    def _emit_put_union(self, pres, expr):
        w = self.w
        disc = w.temp("_d")
        payload = w.temp("_u")
        w.line("%s, %s = %s" % (disc, payload, expr))
        w.line("_rt.put_%s(b, %s)"
               % (self._codec(pres.mint.discriminator), disc))
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
            self.emit_put(arm.pres, payload)
            w.dedent()
        w.line("else:" if not first else "if True:")
        w.indent()
        if default_arm is not None:
            self.emit_put(default_arm.pres, payload)
        else:
            w.line("raise MarshalError('no union arm for ' + repr(%s))"
                   % disc)
        w.dedent()

    # -- unmarshal statements ---------------------------------------------

    def emit_get(self, pres):
        """Emit decode statements; returns the value expression."""
        w = self.w
        if isinstance(pres, p.PresVoid):
            return "None"
        if isinstance(pres, (p.PresDirect, p.PresEnum)):
            var = w.temp("_v")
            w.line("%s, o = _rt.get_%s(d, o)" % (var, self._codec(pres)))
            return var
        if isinstance(pres, p.PresRef):
            var = w.temp("_v")
            w.line("%s, o = %s(d, o)"
                   % (var, self._named_function(pres.name, "get")))
            return var
        if isinstance(pres, p.PresString):
            var = w.temp("_v")
            w.line("%s, o = _rt.get_string(d, o, %r)" % (var, pres.bound))
            return var
        if isinstance(pres, p.PresBytes):
            var = w.temp("_v")
            if pres.fixed_length is not None:
                w.line("%s, o = _rt.get_opaque_fixed(d, o, %d)"
                       % (var, pres.fixed_length))
            else:
                w.line("%s, o = _rt.get_opaque(d, o, %r)" % (var, pres.bound))
            return var
        if isinstance(pres, p.PresFixedArray):
            var = w.temp("_v")
            w.line("%s, o = _rt.get_vector(d, o, %d, %s)"
                   % (var, pres.length, self.get_ref(pres.element)))
            return var
        if isinstance(pres, p.PresCountedArray):
            var = w.temp("_v")
            w.line("%s, o = _rt.get_array(d, o, %s, %r)"
                   % (var, self.get_ref(pres.element), pres.bound))
            return var
        if isinstance(pres, p.PresOptPtr):
            var = w.temp("_v")
            w.line("%s, o = _rt.get_pointer(d, o, %s)"
                   % (var, self.get_ref(pres.element)))
            return var
        if isinstance(pres, p.PresStruct):
            fields = [
                self.emit_get(struct_field.pres)
                for struct_field in pres.fields
            ]
            var = w.temp("_v")
            w.line("%s = %s(%s)"
                   % (var, mangle(pres.record_name), ", ".join(fields)))
            return var
        if isinstance(pres, p.PresException):
            fields = [
                self.emit_get(struct_field.pres)
                for struct_field in pres.fields
            ]
            var = w.temp("_v")
            w.line("%s = %s(%s)"
                   % (var, mangle(pres.class_name), ", ".join(fields)))
            return var
        if isinstance(pres, p.PresUnion):
            return self._emit_get_union(pres)
        raise BackEndError("rpcgen-style cannot unmarshal %r"
                           % type(pres).__name__)

    def _emit_get_union(self, pres):
        w = self.w
        disc = w.temp("_d")
        w.line("%s, o = _rt.get_%s(d, o)"
               % (disc, self._codec(pres.mint.discriminator)))
        var = w.temp("_v")
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
            payload = self.emit_get(arm.pres)
            w.line("%s = (%s, %s)" % (var, disc, payload))
            w.dedent()
        w.line("else:" if not first else "if True:")
        w.indent()
        if default_arm is not None:
            payload = self.emit_get(default_arm.pres)
            w.line("%s = (%s, %s)" % (var, disc, payload))
        else:
            w.line("raise UnmarshalError('no union arm for ' + repr(%s))"
                   % disc)
        w.dedent()
        return var


class RpcgenStyleCompiler(OncXdrBackEnd):
    """Sun rpcgen reproduced: per-datum library calls over ONC/XDR."""

    name = "rpcgen"
    origin = "Sun"
    baseline_flags = BASELINE_FLAGS
    sectioned = False  # the module is one piece and loads whole

    def generate(self, presc, flags=None, renderer="py"):
        # Baselines have a fixed code style; optimization flags are not
        # applicable and are ignored.
        return super().generate(presc, self.baseline_flags, renderer)

    def _emit_codec_functions(self, w, presc, flags, metadata):
        # Rival code styles bypass the marshal IR and write codec text
        # directly through the naive emitter.
        return self._emit_codec_functions_writer(w, presc, flags, metadata)

    def _emit_preamble(self, w, presc):
        super()._emit_preamble(w, presc)
        w.line("from repro.compilers import xdr_rt as _rt")
        w.blank()
        self._naive = _NaiveXdrEmitter(w, presc)

    # ------------------------------------------------------------------
    # Naive per-operation functions (same entry points as Flick modules)
    # ------------------------------------------------------------------

    def _emit_header_puts(self, w, spec):
        """Write the header field by field, as rpcgen-era stubs did."""
        import struct as _struct

        template = spec.template
        patch_offsets = {offset: expr for offset, _f, expr in spec.patches}
        for offset in range(0, len(template), 4):
            if offset in patch_offsets:
                w.line("_rt.put_uint(b, %s)" % patch_offsets[offset])
            else:
                (word,) = _struct.unpack_from(">I", template, offset)
                w.line("_rt.put_uint(b, %d)" % word)

    def _emit_request_marshal(self, w, presc, stub, flags, out_of_line,
                              op_meta):
        naive = self._naive
        spec = self.request_header(presc, stub)
        in_parameters = stub.in_parameters()
        arg_names = ["_a%d" % index for index in range(len(in_parameters))]
        w.line("def _m_req_%s(b, _ctx%s):"
               % (stub.operation_name,
                  ", " + ", ".join(arg_names) if arg_names else ""))
        w.indent()
        self._emit_header_puts(w, spec)
        for parameter, arg_name in zip(in_parameters, arg_names):
            naive.emit_put(parameter.pres, arg_name)
        w.dedent()
        w.blank()
        op_meta["style"] = "per-datum xdr_* calls"

    def _emit_request_unmarshal(self, w, presc, stub, flags, out_of_line):
        naive = self._naive
        w.line("def _u_req_%s(d, o):" % stub.operation_name)
        w.indent()
        exprs = [
            naive.emit_get(parameter.pres)
            for parameter in stub.in_parameters()
        ]
        w.line("return (%s), o"
               % (", ".join(exprs) + "," if exprs else ""))
        w.dedent()
        w.blank()

    def _emit_reply_marshals(self, w, presc, stub, flags, out_of_line):
        naive = self._naive
        spec = self.reply_header(presc, stub)
        success_arm = stub.reply_pres.arms[0]
        result_fields = success_arm.pres.fields
        args = ", ".join("_r_%s" % f.name.lstrip("_") for f in result_fields)
        w.line("def _m_rep_ok_%s(b, _ctx%s):"
               % (stub.operation_name, ", " + args if args else ""))
        w.indent()
        self._emit_header_puts(w, spec)
        w.line("_rt.put_uint(b, 0)")
        for struct_field in result_fields:
            naive.emit_put(
                struct_field.pres, "_r_%s" % struct_field.name.lstrip("_")
            )
        w.dedent()
        w.blank()
        for arm in stub.reply_pres.arms[1:]:
            label = arm.labels[0]
            w.line("def _m_rep_x%d_%s(b, _ctx, _exc):"
                   % (label, stub.operation_name))
            w.indent()
            self._emit_header_puts(w, spec)
            w.line("_rt.put_uint(b, %d)" % label)
            naive.emit_put(arm.pres, "_exc")
            w.dedent()
            w.blank()

    def _emit_reply_unmarshal(self, w, presc, stub, flags, out_of_line):
        naive = self._naive
        w.line("def _u_rep_%s(d, o):" % stub.operation_name)
        w.indent()
        w.line("_d, o = _rt.get_uint(d, o)")
        w.line("if _d == 0:")
        w.indent()
        success_arm = stub.reply_pres.arms[0]
        exprs = [
            naive.emit_get(struct_field.pres)
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
            value = naive.emit_get(arm.pres)
            w.line("raise %s" % value)
            w.dedent()
        w.line("raise UnmarshalError('bad reply status %r' % (_d,))")
        w.dedent()
        w.blank()

    def _drain_out_of_line(self, w, presc, flags, out_of_line):
        self._naive.drain()


class PowerRpcStyleCompiler(RpcgenStyleCompiler):
    """Netbula PowerRPC: a commercial rpcgen derivative.

    The paper notes PowerRPC "provides an IDL that is similar to the CORBA
    IDL; however, PowerRPC's back end produces stubs that are compatible
    with those produced by rpcgen", and Figures 3-6 show it performing
    essentially like rpcgen.  Its reproduction therefore shares the
    rpcgen-style generator (front ends differ: it is typically driven from
    CORBA IDL input) and differs only in identification.
    """

    name = "powerrpc"
    origin = "Netbula"
