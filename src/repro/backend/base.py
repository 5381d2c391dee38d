"""The shared optimizing back-end library.

This module assembles complete, executable Python stub modules from a
PRES_C presentation: record and exception classes, the codec functions
(lowered to marshal IR by :mod:`repro.mir` and rendered by the selected
renderer), a client proxy class, a servant base class, and the server
dispatch function with its demultiplexing table.

Concrete back ends (ONC/XDR, IIOP, Mach 3, Fluke) subclass
:class:`OptimizingBackEnd` and provide only protocol policy: header
templates, dispatch-key extraction, and reply validation.  Everything else
— including all of the section-3 optimizations, which run as MIR passes —
is inherited, mirroring the paper's Table 1.

Message headers use precomputed byte templates: all header fields that are
static per operation (program numbers, operation names, object keys) are
baked into one constant, copied with a single slice assignment, and the few
dynamic fields (transaction ids, message sizes) are patched at fixed
offsets.  Body marshaling then starts at a statically known offset, which
maximizes chunking.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import InitVar, dataclass, field
from functools import partial
from typing import Dict, NamedTuple, Optional, Tuple

from repro import envelopes
from repro.errors import BackEndError
from repro.core.options import OptFlags
from repro.pres import nodes as p
from repro.backend.pywriter import PyWriter
from repro.mir import ops as mir_ops
from repro.mir.lower import OutOfLineSet
from repro.mir.render_c import render_c

mangle = mir_ops.mangle

#: Renderers :meth:`OptimizingBackEnd.generate` accepts.
RENDERERS = ("py", "closures", "c")


@dataclass(frozen=True)
class HeaderSpec:
    """A message header as a constant template plus dynamic patches.

    Attributes:
        template: the header bytes with dynamic fields zeroed.
        patches: ``(offset, struct_format, expression)`` triples applied
            after the template is copied (e.g. the ONC RPC xid).
        size_patch: ``(offset, struct_format, delta)`` — after the body is
            marshaled, ``buffer.length - delta`` is written here (GIOP and
            Mach carry message sizes).
    """

    template: bytes
    patches: Tuple[Tuple[int, str, str], ...] = ()
    size_patch: Optional[Tuple[int, str, int]] = None


class Section(NamedTuple):
    """One row of :attr:`GeneratedStubs.sections`: a role's share of
    the module text."""

    name: str
    #: ``(start, end)`` line indices into *py_source*, in print order.
    spans: Tuple[Tuple[int, int], ...]
    #: The top-level names the lines bind, for a section that loads at
    #: the first use of one of them; empty for one that loads with the
    #: module.
    names: Tuple[str, ...] = ()


#: The sections no code of another section names, so each can load when
#: an attribute access first asks for it.
DEFERRED_SECTIONS = ("client", "server", "errors")

_BINDS = re.compile(r"(?:def |class )(\w+)|(\w+) = ")


@dataclass
class GeneratedStubs:
    """The output of one back-end run."""

    interface_name: str
    backend_name: str
    presentation_style: str
    py_source: str
    #: The C fidelity artifact as literal text (baseline compilers), or
    #: *c_artifact*: a zero-argument callable returning ``(c_source,
    #: c_header)``.  Either way ``stubs.c_source``/``stubs.c_header``
    #: are read-only and computed on first read, once — a compile
    #: nobody asks C of never prints any.
    c_source: InitVar[Optional[str]] = None
    c_header: InitVar[Optional[str]] = None
    c_artifact: object = field(default=None, repr=False)
    metadata: Dict[str, object] = field(default_factory=dict)
    module_name: str = ""
    renderer: str = "py"
    mir: object = field(default=None, repr=False)
    #: Zero-argument callable returning the naive type IR
    #: (:class:`repro.mir.ops.NaiveProgram`) for this interface.  The
    #: payload-shape profiler uses it to know which channels each codec
    #: carries; it is evaluated lazily (and only once) so uninstrumented
    #: compiles pay nothing.
    shapes_factory: object = field(default=None, repr=False)
    #: The back-end instance that generated these stubs and the flags it
    #: ran with — what rebuilding their marshal IR needs (the e2e
    #: benchmark's compile replica times each stage from them).
    backend_instance: object = field(default=None, repr=False)
    flags: object = field(default=None, repr=False)
    #: The section table of *py_source*, in role order: ``shared``
    #: (preamble, records, exceptions, what codecs call on an error
    #: reply), ``codecs`` (runtime imports, header consts,
    #: ``_m_*``/``_u_*`` defs), then ``client``, ``server`` and
    #: ``errors``.  Empty when the text is one piece (baseline
    #: compilers).
    sections: Tuple[Section, ...] = ()

    _module = None

    def __post_init__(self, c_source, c_header):
        if c_source is not None:
            self.c_artifact = lambda: (c_source, c_header or "")
        self._c = _memoized(self.c_artifact)

    def load(self):
        """Exec the generated Python module (cached) and return it.

        The ``py`` renderer's codecs are the module text itself.  Under
        ``closures`` the codec section is left out and every codec is a
        deferred entry: the same text, rendered and compiled per
        function by its first call.  Either way the ``client``,
        ``server`` and ``errors`` sections compile when first used
        (:func:`repro.core.loader.load_stub_module`).
        """
        if self._module is None:
            from repro.core.loader import load_stub_module

            closures = self.renderer == "closures"
            module = load_stub_module(
                self.py_source, self.module_name or "flick_generated",
                self.sections, without=("codecs",) if closures else (),
            )
            if closures:
                from repro.mir.render_closures import install_closures

                install_closures(module, self.mir)
            if self.shapes_factory is not None:
                module._flick_shapes = _memoized(self.shapes_factory)
            self._module = module
        return self._module


GeneratedStubs.c_source = property(
    lambda self: self._c()[0], doc="C stub source, printed on first read.")
GeneratedStubs.c_header = property(
    lambda self: self._c()[1], doc="C header, printed on first read.")


def _memoized(thunk):
    cell = []

    def cached():
        if not cell:
            cell.append(thunk())
        return cell[0]

    return cached


class OptimizingBackEnd:
    """Base class for all back ends; owns module assembly.

    Subclasses set :attr:`name`, :attr:`wire_format` and
    :attr:`envelope` and implement the protocol hooks:
    :meth:`request_header`, :meth:`reply_header`, :meth:`demux_key`,
    :meth:`interface_identity`, and :meth:`client_ctx_expr`.
    """

    name = "abstract"
    wire_format = None
    #: The protocol whose walks in :mod:`repro.envelopes` read what
    #: :meth:`request_header` / :meth:`reply_header` write.
    envelope = None
    #: Kernels that DMA from fixed staging areas (Mach-style) marshal
    #: byte runs through a staging variable; see MarshalLower.
    staged_copies = False
    #: Whether :meth:`generate` records the section table; the baseline
    #: compilers' modules are one piece and load whole.
    sectioned = True

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------

    def request_header(self, presc, stub):
        raise NotImplementedError

    def reply_header(self, presc, stub):
        raise NotImplementedError

    def demux_key(self, presc, stub):
        """The dispatch-table key literal (int or bytes) for *stub*."""
        raise NotImplementedError

    def interface_identity(self, presc):
        """What names *presc* in a request envelope, item by item as
        the envelope's ``ident`` steps compare it (``()``: nothing)."""
        return ()

    def emit_dispatch_prelude(self, w, presc):
        """Emit code assigning ``_key``, ``o`` (body offset), ``_ctx``:
        the request walk of :attr:`envelope`, as inlined statements."""
        w.paste(envelopes.render(
            self.envelope, "request", self.wire_format.endian,
            ident=envelopes.literal(self.interface_identity(presc)),
            wants=("strict",)))

    def emit_check_reply(self, w, presc):
        """Emit ``def _check_reply(d, _ctx):`` returning the body offset:
        the reply walk of :attr:`envelope` up to the body."""
        with w.block("def _check_reply(d, _ctx):"):
            w.paste(envelopes.render(
                self.envelope, "reply", self.wire_format.endian,
                ident=("%s != _ctx",), upto="body"))
            w.line("return o")

    def emit_reply_error_decoder(self, w, presc):
        """Emit what :meth:`reply_error_tail_ops` calls.  It is printed
        between ``_check_reply`` and the proxy class but belongs to the
        ``shared`` section: the ``_u_rep_*`` codecs name it, and a
        global lookup never loads a section."""

    def reply_error_tail_ops(self, presc):
        """IR ops for the ``_u_rep_*`` fallthrough on unknown statuses.

        Protocols with in-band error replies (GIOP system exceptions)
        override this to decode them; the default rejects the status.
        """
        return [mir_ops.Raise(
            error="UnmarshalError",
            message_expr="'bad reply status %r' % (_d,)",
            literal=False,
        )]

    #: DispatchError code for an unknown operation (protocol-specific).
    unknown_op_code = None

    def emit_error_reply(self, w, presc):
        """Emit ``def encode_error_reply(d, error, b):``.

        The function inspects the failed request *d* and the exception
        *error* raised by ``dispatch`` and marshals the protocol's error
        reply into *b*, returning True; it returns False when no reply
        can or should be sent (unparseable header, oneway request) — the
        server then closes or drops instead.  Protocols without a wire
        error format inherit this always-False default.
        """
        w.line("def encode_error_reply(d, error, b):")
        w.indent()
        w.line('"""No wire-level error replies for this protocol."""')
        w.line("return False")
        w.dedent()
        w.blank()

    def client_ctx_expr(self, stub):
        """Client-side expression for the request context (xid etc.)."""
        return "self._next_id()"

    def supports(self, presc):
        """Hook for back ends that restrict presentations (MIG-style)."""

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def generate(self, presc, flags=None, renderer="py"):
        """Generate stubs for *presc*; returns :class:`GeneratedStubs`.

        *renderer* selects when the rendered codec text is compiled:
        ``"py"`` with the module (the default), ``"closures"`` function
        by function, each at its first call (the module loads without
        its codec section), and ``"c"`` is implied —
        ``stubs.c_source``/``c_header`` print the C artifact when first
        read, and a presentation the C printer cannot express raises
        :class:`BackEndError` there, not here.  A
        :class:`repro.core.options.RendererPolicy` is accepted in place
        of the name; its ``disable_passes`` fold into *flags*.
        """
        if not isinstance(renderer, str):
            from repro.core.options import RendererPolicy

            policy = RendererPolicy.coerce(renderer)
            flags = policy.resolve_flags(flags)
            renderer = policy.renderer
        flags = flags or OptFlags()
        if renderer not in RENDERERS:
            raise BackEndError(
                "unknown renderer %r; available renderers: %s"
                % (renderer, ", ".join(RENDERERS))
            )
        self.supports(presc)
        w = PyWriter()
        metadata = {
            "operations": {stub.operation_name: {} for stub in presc.stubs},
            "records": [],
            "exceptions": [],
            "demux": "hash" if flags.hash_demux else "linear",
        }
        opened = []

        def section(name):
            """Open *name* at the line the writer is on: a section's
            lines are those printed while it is the open one."""
            opened.append((name, len(w.lines)))

        section("shared")
        self._emit_preamble(w, presc)
        records, exceptions = collect_python_types(presc)
        metadata["records"] = sorted(records)
        metadata["exceptions"] = sorted(exceptions)
        self._emit_records(w, records)
        self._emit_exceptions(w, exceptions)
        section("codecs")
        program = self._emit_codec_functions(w, presc, flags, metadata)
        if renderer == "closures" and program is None:
            raise BackEndError(
                "renderer 'closures' needs the marshal-IR pipeline; "
                "the %s back end emits codec text directly" % self.name
            )
        section("client")
        self.emit_check_reply(w, presc)
        section("shared")
        self.emit_reply_error_decoder(w, presc)
        section("client")
        w.blank()
        self._emit_client(w, presc, flags)
        section("server")
        self._emit_servant(w, presc)
        self._emit_dispatch(w, presc, flags)
        section("errors")
        self.emit_error_reply(w, presc)
        py_source = w.getvalue()
        # Key the module name on the generated source so two versions of
        # one interface (say, an old and a new schema under diff) load
        # side by side under distinguishable names.  The
        # closure renderer shares py_source with the source renderer but
        # loads it differently, so it gets its own suffix.
        module_name = "flick_%s_%s_%s" % (
            mangle(presc.interface_name).lower(),
            self.name.replace("-", "_"),
            hashlib.sha256(py_source.encode("utf-8")).hexdigest()[:10],
        )
        if renderer == "closures":
            module_name += "_clo"
        return GeneratedStubs(
            interface_name=presc.interface_name,
            backend_name=self.name,
            presentation_style=presc.presentation_style,
            py_source=py_source,
            c_artifact=partial(render_c, self, presc, flags),
            metadata=metadata,
            module_name=module_name,
            renderer=renderer,
            mir=program,
            shapes_factory=self._shapes_factory(presc, flags),
            backend_instance=self,
            flags=flags,
            sections=_section_table(w.lines, opened)
            if self.sectioned else (),
        )

    def _shapes_factory(self, presc, flags):
        """A lazy thunk building the naive type IR for the profiler."""
        def build():
            from repro.mir.build import build_naive

            return build_naive(self, presc, flags)

        return build

    # ------------------------------------------------------------------
    # Codec emission (renderer seam)
    # ------------------------------------------------------------------

    def _emit_codec_functions(self, w, presc, flags, metadata):
        """Lower PRES_C to marshal IR, run the pass pipeline, render.

        Returns the optimized :class:`repro.mir.ops.MirProgram`.
        Baseline compilers that reproduce rival code styles override
        this with :meth:`_emit_codec_functions_writer` and return None.
        """
        from repro.mir.build import build_program
        from repro.mir.passes import PassManager
        from repro.mir import render_py

        program = build_program(self, presc, flags)
        program = PassManager(flags).run(program)
        render_py.render_program(w, program)
        for fn in program.functions:
            if fn.kind == "m_req":
                op_meta = metadata["operations"][fn.operation]
                op_meta["request_chunks"] = fn.chunks
        return program

    def _emit_codec_functions_writer(self, w, presc, flags, metadata):
        """Per-stub writer loop for compilers that emit codec text
        directly through their own emitters instead of marshal IR."""
        out_of_line = OutOfLineSet()
        for stub in presc.stubs:
            op_meta = metadata["operations"][stub.operation_name]
            self._emit_request_marshal(w, presc, stub, flags, out_of_line,
                                       op_meta)
            self._emit_request_unmarshal(w, presc, stub, flags,
                                         out_of_line)
            if not stub.oneway:
                self._emit_reply_marshals(w, presc, stub, flags,
                                          out_of_line)
                self._emit_reply_unmarshal(w, presc, stub, flags,
                                           out_of_line)
        self._drain_out_of_line(w, presc, flags, out_of_line)
        return None

    # ------------------------------------------------------------------
    # Module sections
    # ------------------------------------------------------------------

    def _emit_preamble(self, w, presc):
        w.line('"""Flick-generated stubs for %s (%s, %s presentation).'
               % (presc.interface_name, self.name, presc.presentation_style))
        w.line('')
        w.line('Generated by the Flick reproduction; do not edit."""')
        w.line("from struct import (pack_into as _pack_into,")
        w.line("                    unpack_from as _unpack_from,")
        w.line("                    error as _struct_error)")
        w.line("from repro.encoding.buffer import MarshalBuffer")
        w.line("from repro.pres.values import Record as _Record")
        w.line("from repro.errors import (DispatchError, FlickUserException,")
        w.line("                          MarshalError, OverloadError,")
        w.line("                          RemoteCallError, TransportError,")
        w.line("                          UnmarshalError, WireFormatError)")
        w.blank()
        w.line("_Z = b'\\x00' * 8")
        w.line("_ENVELOPE = %r  # repro.envelopes walk, byte order"
               % ((self.envelope, self.wire_format.endian),))
        w.blank()
        w.line("# Exceptions a hostile byte stream can force out of the")
        w.line("# decode helpers; the stubs convert them to WireFormatError")
        w.line("# so no raw Python error crosses the stub boundary.")
        w.line("_DEC_ERRORS = (_struct_error, IndexError, ValueError,")
        w.line("               OverflowError, MemoryError, RecursionError)")
        w.line("# Exceptions a mistyped value can force out of the marshal")
        w.line("# helpers (servant returned the wrong shape).")
        w.line("_ENC_ERRORS = (_struct_error, TypeError, AttributeError,")
        w.line("               ValueError, OverflowError, RecursionError)")
        w.line("# What the header re-parse of encode_error_reply gives up on.")
        w.line("_HDR_ERRORS = _DEC_ERRORS + (DispatchError, WireFormatError)")
        w.blank()
        w.line("def _chk_end(d, o):")
        w.indent()
        w.line("if o != len(d):")
        w.indent()
        w.line("raise WireFormatError('reply carries %d trailing bytes'")
        w.line("                      % (len(d) - o), offset=o)")
        w.dedent()
        w.dedent()
        w.blank()

    def _emit_records(self, w, records):
        for record_name in sorted(records):
            fields = records[record_name]
            class_name = mangle(record_name)
            w.line("class %s(_Record):" % class_name)
            w.indent()
            w.line("__slots__ = (%s)" % _tuple_literal(fields))
            w.line("_fields = (%s)" % _tuple_literal(fields))
            args = ", ".join("%s=None" % name for name in fields)
            w.line("def __init__(self%s):" % (", " + args if args else ""))
            w.indent()
            if fields:
                for name in fields:
                    w.line("self.%s = %s" % (name, name))
            else:
                w.line("pass")
            w.dedent()
            w.dedent()
            w.blank()

    def _emit_exceptions(self, w, exceptions):
        for exception_name in sorted(exceptions):
            class_name, fields = exceptions[exception_name]
            w.line("class %s(FlickUserException):" % mangle(class_name))
            w.indent()
            w.line("_fields = (%s)" % _tuple_literal(fields))
            args = ", ".join("%s=None" % name for name in fields)
            w.line("def __init__(self%s):" % (", " + args if args else ""))
            w.indent()
            w.line(
                "FlickUserException.__init__(self, %r)" % exception_name
            )
            for name in fields:
                w.line("self.%s = %s" % (name, name))
            w.dedent()
            w.dedent()
            w.blank()

    # ------------------------------------------------------------------
    # Per-operation layout facts shared by the renderers
    # ------------------------------------------------------------------

    def _header_const_name(self, stub, kind):
        return "_H_%s_%s" % (kind, stub.operation_name)

    def _request_body_offset(self, presc, stub):
        """Static body offset in requests, or None if header is variable."""
        return len(self.request_header(presc, stub).template)

    def _reply_body_offset(self, presc, stub):
        return len(self.reply_header(presc, stub).template)

    # ------------------------------------------------------------------
    # Client / servant / dispatch
    # ------------------------------------------------------------------

    def _client_class_name(self, presc):
        return "%sClient" % presc.interface_name.replace("::", "_")

    def _servant_class_name(self, presc):
        return "%sServant" % presc.interface_name.replace("::", "_")

    def _emit_client(self, w, presc, flags):
        w.line("class %s(object):" % self._client_class_name(presc))
        w.indent()
        w.line('"""Client proxy for %s over %s."""'
               % (presc.interface_name, self.name))
        w.blank()
        w.line("def __init__(self, transport):")
        w.indent()
        w.line("self._transport = transport")
        if flags.reuse_buffers:
            w.line("self._buf = MarshalBuffer()")
        w.line("self._id = 0")
        w.dedent()
        w.blank()
        w.line("def _next_id(self):")
        w.indent()
        w.line("self._id = (self._id + 1) & 0xFFFFFFFF")
        w.line("return self._id")
        w.dedent()
        w.blank()
        for stub in presc.stubs:
            args = ", ".join(
                parameter.name for parameter in stub.in_parameters()
            )
            w.line("def %s(self%s):"
                   % (stub.operation_name, ", " + args if args else ""))
            w.indent()
            if flags.reuse_buffers:
                w.line("_b = self._buf")
                w.line("_b.reset()")
            else:
                w.line("_b = MarshalBuffer()")
            w.line("_ctx = %s" % self.client_ctx_expr(stub))
            call_args = ", ".join(
                parameter.name for parameter in stub.in_parameters()
            )
            w.line("try:")
            w.indent()
            w.line("_m_req_%s(_b, _ctx%s)"
                   % (stub.operation_name,
                      ", " + call_args if call_args else ""))
            w.dedent()
            w.line("except (_struct_error, TypeError, AttributeError)"
                   " as _e:")
            w.indent()
            w.line("raise MarshalError('cannot marshal %s request: '"
                   " + str(_e))" % stub.operation_name)
            w.dedent()
            if stub.oneway:
                w.line("self._transport.send(_b.view())")
                w.line("return None")
            else:
                w.line("_rd = self._transport.call(_b.view())")
                w.line("try:")
                w.indent()
                w.line("_o = _check_reply(_rd, _ctx)")
                w.line("return _u_rep_%s(_rd, _o)" % stub.operation_name)
                w.dedent()
                w.line("except _DEC_ERRORS as _e:")
                w.indent()
                w.line("raise WireFormatError("
                       "'truncated or malformed %s reply: '"
                       " + str(_e))" % stub.operation_name)
                w.dedent()
            w.dedent()
            w.blank()
        w.dedent()
        w.blank()

    def _emit_servant(self, w, presc):
        w.line("class %s(object):" % self._servant_class_name(presc))
        w.indent()
        w.line('"""Implement the %s operations by subclassing this."""'
               % presc.interface_name)
        w.blank()
        for stub in presc.stubs:
            args = ", ".join(
                parameter.name for parameter in stub.in_parameters()
            )
            w.line("def %s(self%s):"
                   % (stub.operation_name, ", " + args if args else ""))
            w.indent()
            w.line("raise NotImplementedError(%r)" % stub.operation_name)
            w.dedent()
            w.blank()
        w.dedent()
        w.blank()

    def _result_unpack(self, w, stub):
        """Bind the servant's return value to per-field result variables."""
        success_arm = stub.reply_pres.arms[0]
        result_fields = success_arm.pres.fields
        names = ["_r_%s" % f.name.lstrip("_") for f in result_fields]
        if not names:
            return []
        if len(names) == 1:
            w.line("%s = _res" % names[0])
        else:
            w.line("%s = _res" % ", ".join(names))
        return names

    def _emit_reply_marshal_guard(self, w, stub, marshal_call):
        """Wrap a reply-marshal call so a mistyped servant result raises
        MarshalError (a server bug), never a raw Python error."""
        w.line("try:")
        w.indent()
        w.line(marshal_call)
        w.dedent()
        w.line("except _ENC_ERRORS as _e:")
        w.indent()
        w.line("raise MarshalError('cannot marshal %s reply: '"
               " + str(_e))" % stub.operation_name)
        w.dedent()

    def _emit_dispatch(self, w, presc, flags):
        # Per-operation handlers, with unmarshal and reply marshal
        # inlined.  Failures are classified: argument-decode errors become
        # WireFormatError (the *client* sent garbage), reply-marshal
        # errors become MarshalError (the *servant* returned garbage),
        # and servant exceptions propagate untouched.
        for stub in presc.stubs:
            w.line("def _h_%s(d, o, impl, b, _ctx):" % stub.operation_name)
            w.indent()
            in_parameters = stub.in_parameters()
            arg_names = [
                "_a%d" % index for index in range(len(in_parameters))
            ]
            if in_parameters:
                w.line("try:")
                w.indent()
                w.line("(%s,), o = _u_req_%s(d, o)"
                       % (", ".join(arg_names), stub.operation_name))
                w.dedent()
                w.line("except _DEC_ERRORS as _e:")
                w.indent()
                w.line("raise WireFormatError('malformed %s request: '"
                       " + str(_e))" % stub.operation_name)
                w.dedent()
            call = "impl.%s(%s)" % (
                stub.operation_name, ", ".join(arg_names)
            )
            if stub.oneway:
                w.line(call)
                w.line("return False")
                w.dedent()
                w.blank()
                continue
            exception_arms = stub.reply_pres.arms[1:]
            if exception_arms:
                w.line("try:")
                w.indent()
                w.line("_res = %s" % call)
                w.dedent()
                for arm in exception_arms:
                    class_name = mangle(arm.pres.class_name)
                    w.line("except %s as _exc:" % class_name)
                    w.indent()
                    self._emit_reply_marshal_guard(
                        w, stub,
                        "_m_rep_x%d_%s(b, _ctx, _exc)"
                        % (arm.labels[0], stub.operation_name),
                    )
                    w.line("return True")
                    w.dedent()
            else:
                w.line("_res = %s" % call)
            names = self._result_unpack(w, stub)
            self._emit_reply_marshal_guard(
                w, stub,
                "_m_rep_ok_%s(b, _ctx%s)"
                % (stub.operation_name,
                   ", " + ", ".join(names) if names else ""),
            )
            w.line("return True")
            w.dedent()
            w.blank()
        # The demux table / chain (section 3.3).
        if flags.hash_demux:
            w.line("_HANDLERS = {")
            w.indent()
            for stub in presc.stubs:
                w.line("%r: _h_%s," % (self.demux_key(presc, stub),
                                       stub.operation_name))
            w.dedent()
            w.line("}")
            w.blank()
        w.line("def dispatch(d, impl, b):")
        w.indent()
        w.line('"""Serve one request from d; marshal any reply into b.')
        w.line('')
        w.line('Returns True when b holds a reply, False for oneway."""')
        # Only the header parse and demux sit inside the broad decode
        # guard; servant execution must never be mistaken for bad input.
        w.line("try:")
        w.indent()
        if flags.zero_copy_server:
            # Received byte arrays are presented as views into this
            # buffer (section 3.1); valid only until dispatch returns.
            w.line("d = memoryview(d)")
        self.emit_dispatch_prelude(w, presc)
        if flags.hash_demux:
            w.line("_h = _HANDLERS.get(_key)")
        else:
            w.line("_h = None")
            first = True
            for stub in presc.stubs:
                keyword = "if" if first else "elif"
                first = False
                w.line("%s _key == %r:"
                       % (keyword, self.demux_key(presc, stub)))
                w.indent()
                w.line("_h = _h_%s" % stub.operation_name)
                w.dedent()
        w.dedent()
        w.line("except _DEC_ERRORS as _e:")
        w.indent()
        w.line("raise WireFormatError("
               "'truncated or malformed request header: ' + str(_e))")
        w.dedent()
        w.line("if _h is None:")
        w.indent()
        w.line("raise DispatchError('no operation %%r' %% (_key,),"
               " code=%r)" % self.unknown_op_code)
        w.dedent()
        w.line("return _h(d, o, impl, b, _ctx)")
        w.dedent()
        w.blank()


def _section_table(lines, opened):
    """*opened* — ``(section name, first line)`` in print order, each
    closed by the next — as :class:`Section` rows."""
    spans = {}
    ends = [start for _name, start in opened[1:]] + [len(lines)]
    for (name, start), end in zip(opened, ends):
        if end > start:
            spans.setdefault(name, []).append((start, end))
    table = []
    for name, own in spans.items():
        names = []
        if name in DEFERRED_SECTIONS:
            for start, end in own:
                for line in lines[start:end]:
                    match = _BINDS.match(line)
                    if match:
                        names.append(match[1] or match[2])
        table.append(Section(name, tuple(own), tuple(names)))
    return tuple(table)


def _tuple_literal(names):
    if not names:
        return ""
    return ", ".join(repr(name) for name in names) + ","


def collect_python_types(presc):
    """Gather record classes and exception classes used by *presc*.

    Returns ``(records, exceptions)``: record name -> field-name tuple,
    and exception AOI name -> (class name, field-name tuple).
    """
    records = {}
    exceptions = {}
    seen_refs = set()

    def walk(pres):
        if isinstance(pres, p.PresRef):
            if pres.name in seen_refs:
                return
            seen_refs.add(pres.name)
            walk(presc.pres_registry[pres.name])
        elif isinstance(pres, p.PresStruct):
            records[pres.record_name] = tuple(
                struct_field.name for struct_field in pres.fields
            )
            for struct_field in pres.fields:
                walk(struct_field.pres)
        elif isinstance(pres, p.PresException):
            exceptions[pres.exception_name] = (
                pres.class_name,
                tuple(struct_field.name for struct_field in pres.fields),
            )
            for struct_field in pres.fields:
                walk(struct_field.pres)
        elif isinstance(pres, p.PresUnion):
            for arm in pres.arms:
                walk(arm.pres)
        elif isinstance(pres, (p.PresFixedArray, p.PresCountedArray,
                               p.PresOptPtr)):
            walk(pres.element)

    for stub in presc.stubs:
        for parameter in stub.parameters:
            walk(parameter.pres)
        if stub.reply_pres is not None:
            for arm in stub.reply_pres.arms:
                walk(arm.pres)
    # The synthetic request/reply wrapper structs are decomposed into
    # function arguments and never materialize as records.
    for stub in presc.stubs:
        records.pop("%s_request" % stub.operation_name, None)
        records.pop("%s_reply" % stub.operation_name, None)
    return records, exceptions
