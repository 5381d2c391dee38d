"""C stub emission — the fidelity artifact.

The paper's Flick emits C; this reproduction executes its stubs in Python
but also renders each presentation as C source in Flick's style, so the
generated-code shape (chunk pointers with constant offsets, single
free-space checks per region, ``memcpy`` for byte runs, ``switch``-based
demultiplexing) can be inspected, diffed, and measured (Table 2's code-size
comparison).  The C output targets a small runtime macro vocabulary
(``flick_check_room``, ``flick_buf_ptr``, ``flick_buf_advance``) documented
in the generated header.

The C artifact always reflects the fully optimized configuration; the
Python target is where the ablation flags take effect.
"""

from __future__ import annotations

from repro.cast import emit_c
from repro.errors import BackEndError
from repro.backend.pywriter import PyWriter
from repro.mint.types import MintInteger
from repro.pres import nodes as p

#: struct-format character -> C type used in chunk writes.
_C_TYPES = {
    "b": "flick_s8", "B": "flick_u8",
    "h": "flick_s16", "H": "flick_u16",
    "i": "flick_s32", "I": "flick_u32",
    "q": "flick_s64", "Q": "flick_u64",
    "f": "flick_f32", "d": "flick_f64",
}

_RUNTIME_HEADER = """\
/* Flick runtime vocabulary (see flick-runtime.h):
 *   flick_check_room(buf, n)   -- grow/check marshal buffer space
 *   flick_buf_ptr(buf)         -- current write/read position
 *   flick_buf_advance(buf, n)  -- commit n bytes
 *   flick_u32 / flick_s32 ...  -- fixed-width wire types (byte order
 *                                 applied by the transport layer)
 */"""


class CStubEmitter:
    """Emits one interface's C stub file in Flick's optimized style."""

    def __init__(self, backend, presc):
        self.backend = backend
        self.presc = presc
        self.fmt = backend.wire_format
        self.w = PyWriter()
        self._chunk = []  # (offset, ctype, expr)
        self._chunk_size = 0
        self._label = 0
        self._fn_temps = []
        self._body_start = 0
        # Out-of-line marshal functions for recursive types.
        self._outlined = set()
        self._pending = []
        # Runtime decode helpers referenced by server skeletons.
        self._decode_helpers = set()
        self._rchunk = []
        self._rchunk_size = 0

    # ------------------------------------------------------------------

    def temp(self, prefix="_t"):
        self._label += 1
        name = "%s%d" % (prefix, self._label)
        self._fn_temps.append(name)
        return name

    def begin_function(self):
        """Start collecting temp declarations for one function body."""
        self._fn_temps = []
        self._body_start = len(self.w.lines)

    def end_function_temps(self):
        """Insert declarations for the temps the body allocated."""
        if self._fn_temps:
            declaration = (
                self.w.indent_text * self.w.depth
                + "unsigned int %s;" % ", ".join(self._fn_temps)
            )
            self.w.lines.insert(self._body_start, declaration)

    def line(self, text=""):
        self.w.line(text)

    # ------------------------------------------------------------------
    # Chunked marshal code (the paper's chunk-pointer scheme)
    # ------------------------------------------------------------------

    def add_atom(self, codec, expr):
        pad = -self._chunk_size % codec.alignment
        offset = self._chunk_size + pad
        ctype = _C_TYPES[codec.format]
        if codec.conversion == "bool":
            expr = "(%s) ? 1 : 0" % expr
        self._chunk.append((offset, ctype, expr))
        self._chunk_size = offset + codec.size

    def flush(self):
        if not self._chunk:
            return
        entries, self._chunk = self._chunk, []
        size, self._chunk_size = self._chunk_size, 0
        w = self.w
        w.line("flick_check_room(_buf, %d);" % size)
        w.line("_chunk = flick_buf_ptr(_buf);")
        for offset, ctype, expr in entries:
            # Constant-offset writes through the chunk pointer: the
            # pointer itself is never incremented (section 3.2).
            w.line("*(%s *)(_chunk + %d) = %s;" % (ctype, offset, expr))
        w.line("flick_buf_advance(_buf, %d);" % size)

    # ------------------------------------------------------------------
    # PRES walk (marshal direction)
    # ------------------------------------------------------------------

    def emit_marshal(self, pres, expr):
        w = self.w
        if isinstance(pres, p.PresVoid):
            return
        if isinstance(pres, p.PresRef):
            from repro.mint.analysis import is_recursive

            if is_recursive(pres.mint, self.presc.mint_registry):
                # Recursive types marshal through an out-of-line function,
                # as Flick's generated C does (section 3.3).
                function = "_flick_m_%s" % pres.name.replace("::", "_")
                if pres.name not in self._outlined:
                    self._outlined.add(pres.name)
                    self._pending.append(pres.name)
                self.flush()
                w.line("%s(_buf, &%s);" % (function, expr))
                return
            target = self.presc.pres_registry[pres.name]
            self.emit_marshal(target, expr)
            return
        if isinstance(pres, (p.PresDirect, p.PresEnum)):
            self.add_atom(self.fmt.atom_codec(pres.mint), expr)
            return
        if isinstance(pres, p.PresString):
            self.flush()
            length = self.temp("_len")
            w.line("%s = strlen(%s);" % (length, expr))
            nul = 1 if self.fmt.string_nul_terminated else 0
            if self.fmt.pads_byte_runs(pres.mint):
                padded = "((%s + %d + 3) & ~3)" % (length, nul)
            else:
                padded = "(%s + %d)" % (length, nul)
            w.line("flick_check_room(_buf, 4 + %s);" % padded)
            w.line("_chunk = flick_buf_ptr(_buf);")
            w.line("*(flick_u32 *)(_chunk + 0) = %s%s;"
                   % (length, " + 1" if nul else ""))
            # Whole-array copy: the memcpy optimization (section 3.2).
            w.line("memcpy(_chunk + 4, %s, %s%s);"
                   % (expr, length, " + 1" if nul else ""))
            w.line("flick_buf_advance(_buf, 4 + %s);" % padded)
            return
        if isinstance(pres, p.PresBytes):
            self.flush()
            if pres.fixed_length is not None:
                total = pres.fixed_length + (-pres.fixed_length % 4)
                w.line("flick_check_room(_buf, %d);" % total)
                w.line("_chunk = flick_buf_ptr(_buf);")
                w.line("memcpy(_chunk, %s, %d);" % (expr, pres.fixed_length))
                w.line("flick_buf_advance(_buf, %d);" % total)
            else:
                length = self.temp("_len")
                w.line("%s = %s._length;" % (length, expr))
                w.line("flick_check_room(_buf, 4 + ((%s + 3) & ~3));" % length)
                w.line("_chunk = flick_buf_ptr(_buf);")
                w.line("*(flick_u32 *)(_chunk + 0) = %s;" % length)
                w.line("memcpy(_chunk + 4, %s._buffer, %s);" % (expr, length))
                w.line("flick_buf_advance(_buf, 4 + ((%s + 3) & ~3));" % length)
            return
        if isinstance(pres, p.PresFixedArray):
            self._emit_array_loop(pres.element, expr, str(pres.length))
            return
        if isinstance(pres, p.PresCountedArray):
            self.flush()
            length = self.temp("_len")
            w.line("%s = %s._length;" % (length, expr))
            self.add_atom(
                self.fmt.atom_codec(MintInteger(32, False)), length
            )
            self._emit_array_loop(
                pres.element, "%s._buffer" % expr, length
            )
            return
        if isinstance(pres, p.PresOptPtr):
            self.flush()
            w.line("if (%s == 0) {" % expr)
            self.w.indent()
            self.add_atom(self.fmt.atom_codec(MintInteger(32, False)), "0")
            self.flush()
            self.w.dedent()
            w.line("} else {")
            self.w.indent()
            self.add_atom(self.fmt.atom_codec(MintInteger(32, False)), "1")
            self.emit_marshal(pres.element, "(*%s)" % expr)
            self.flush()
            self.w.dedent()
            w.line("}")
            return
        if isinstance(pres, p.PresStruct):
            for struct_field in pres.fields:
                self.emit_marshal(
                    struct_field.pres, "%s.%s" % (expr, struct_field.name)
                )
            return
        if isinstance(pres, p.PresException):
            for struct_field in pres.fields:
                self.emit_marshal(
                    struct_field.pres, "%s.%s" % (expr, struct_field.name)
                )
            return
        if isinstance(pres, p.PresUnion):
            self._emit_union(pres, expr)
            return
        raise BackEndError(
            "the C printer cannot marshal presentation node %s (at %s)"
            % (type(pres).__name__, expr))

    def _emit_array_loop(self, element_pres, base_expr, count_expr):
        self.flush()
        index = self.temp("_i")
        self.w.line("for (%s = 0; %s < %s; %s++) {"
                    % (index, index, count_expr, index))
        self.w.indent()
        self.emit_marshal(element_pres, "%s[%s]" % (base_expr, index))
        self.flush()
        self.w.dedent()
        self.w.line("}")

    def _emit_union(self, pres, expr):
        self.flush()
        w = self.w
        w.line("switch (%s._d) {" % expr)
        codec = self.fmt.atom_codec(pres.mint.discriminator)
        for arm in pres.arms:
            if arm.is_default:
                w.line("default:")
            else:
                for label in arm.labels:
                    w.line("case %s:" % _c_label(label))
            w.indent()
            self.add_atom(codec, "%s._d" % expr)
            if not isinstance(arm.pres, p.PresVoid):
                self.emit_marshal(
                    arm.pres, "%s._u.%s" % (expr, arm.name)
                )
            self.flush()
            w.line("break;")
            w.dedent()
        w.line("}")

    # ------------------------------------------------------------------
    # Stub assembly
    # ------------------------------------------------------------------

    def _handle_param(self, stub):
        """The transport handle in the stub signature (_obj or clnt)."""
        names = [param.name for param in stub.c_decl.parameters]
        if "_obj" in names:
            return "_obj"
        if "clnt" in names:
            return "clnt"
        return names[0] if names else "_obj"

    def _param_expr(self, stub, parameter):
        """The C expression for an in-flowing parameter's value."""
        if self.presc.presentation_style == "rpcgen":
            # rpcgen passes every argument by pointer.
            return "(*%s)" % parameter.name
        if parameter.direction == "inout":
            # CORBA C passes inout parameters by pointer.
            return "(*%s)" % parameter.name
        return parameter.name

    def emit_client_stub(self, stub):
        w = self.w
        prototype = _prototype_text(stub.c_decl)
        handle = self._handle_param(stub)
        w.line(prototype)
        w.line("{")
        w.indent()
        w.line("flick_buf_t *_buf = flick_stream_buffer(%s);" % handle)
        w.line("char *_chunk;")
        w.line("(void)_chunk;")
        self.begin_function()
        w.blank()
        spec = self.backend.request_header(self.presc, stub)
        w.line("/* %d-byte %s request header (template + patches) */"
               % (len(spec.template), self.backend.name))
        w.line("flick_check_room(_buf, %d);" % max(len(spec.template), 1))
        w.line("memcpy(flick_buf_ptr(_buf), _flick_req_hdr_%s, %d);"
               % (stub.operation_name, len(spec.template)))
        w.line("flick_buf_advance(_buf, %d);" % len(spec.template))
        for parameter in stub.in_parameters():
            self.emit_marshal(
                parameter.pres, self._param_expr(stub, parameter)
            )
        self.flush()
        if stub.oneway:
            w.line("flick_send(%s, _buf);" % handle
                   if handle == "_obj"
                   else "flick_send((flick_object_t)%s, _buf);" % handle)
        else:
            w.line("flick_send_await_reply(%s, _buf);" % handle
                   if handle == "_obj"
                   else "flick_send_await_reply((flick_object_t)%s, _buf);"
                   % handle)
            w.line("/* reply unmarshaling elided in the C artifact; the")
            w.line("   executable Python stubs implement it fully. */")
        return_type = stub.c_decl.return_type
        from repro.cast import nodes as cn

        is_void = (
            isinstance(return_type, cn.TypeName)
            and return_type.name == "void"
        )
        if not is_void:
            from repro.cast.emit import CEmitter

            text = CEmitter().declarator(return_type, "_flick_result")
            w.line("{ static %s; return _flick_result; }" % text)
        self.end_function_temps()
        self.w.dedent()
        w.line("}")
        w.blank()

    def emit_dispatch(self):
        w = self.w
        # Operation ids: integer request codes directly, or (for string
        # discriminators) the first word of the hashed operation name —
        # the paper's word-at-a-time discriminator decoding.
        for index, stub in enumerate(self.presc.stubs, 1):
            key = self.backend.demux_key(self.presc, stub)
            if isinstance(key, bytes):
                word = int.from_bytes((key + b"\0\0\0\0")[:4], "big")
                w.line("#define FLICK_OP_%s 0x%08xu /* %r */"
                       % (stub.operation_name.upper(), word, key))
        w.blank()
        w.line("int %s_dispatch(flick_buf_t *_in, void *_impl,"
               % _mangle_c(self.presc.interface_name))
        w.line("                flick_buf_t *_out)")
        w.line("{")
        w.indent()
        w.line("/* Word-at-a-time discriminator switch (section 3.3). */")
        w.line("switch (flick_demux_word(_in)) {")
        for index, stub in enumerate(self.presc.stubs):
            key = self.backend.demux_key(self.presc, stub)
            if isinstance(key, bytes):
                w.line("case FLICK_OP_%s:" % stub.operation_name.upper())
            else:
                w.line("case %d:" % key)
            w.indent()
            w.line("return _flick_serve_%s(_in, _impl, _out);"
                   % stub.operation_name)
            w.dedent()
        w.line("default:")
        w.indent()
        w.line("return FLICK_NO_SUCH_OPERATION;")
        w.dedent()
        w.line("}")
        w.dedent()
        w.line("}")
        w.blank()

    def drain_outlined(self):
        """Emit queued out-of-line marshal functions for recursive types."""
        while self._pending:
            name = self._pending.pop(0)
            target = self.presc.pres_registry[name]
            ctype = name.replace("::", "_")
            self.w.line("static void _flick_m_%s(flick_buf_t *_buf,"
                        % ctype)
            self.w.line("                        %s *_v)" % ctype)
            self.w.line("{")
            self.w.indent()
            self.w.line("char *_chunk;")
            self.w.line("(void)_chunk;")
            self.begin_function()
            if isinstance(target, p.PresRef):
                target = self.presc.pres_registry[target.name]
            self.emit_marshal(target, "(*_v)")
            self.flush()
            self.end_function_temps()
            self.w.dedent()
            self.w.line("}")
            self.w.blank()

    def emit_header_constants(self):
        for stub in self.presc.stubs:
            spec = self.backend.request_header(self.presc, stub)
            escaped = "".join("\\x%02x" % byte for byte in spec.template)
            self.w.line('static const char _flick_req_hdr_%s[%d] = "%s";'
                        % (stub.operation_name, max(len(spec.template), 1),
                           escaped))
            if stub.oneway:
                continue
            reply_spec = self.backend.reply_header(self.presc, stub)
            escaped = "".join(
                "\\x%02x" % byte for byte in reply_spec.template
            )
            self.w.line(
                'static const char _flick_rep_hdr_%s[%d] = "%s";'
                % (stub.operation_name,
                   max(len(reply_spec.template), 1), escaped)
            )
        self.w.blank()

    # ------------------------------------------------------------------
    # Server skeletons: unmarshal inlined into the dispatch path (3.3),
    # received data on the stack or in the receive buffer (3.1).
    # ------------------------------------------------------------------

    _DECODE_FNS = {
        "b": "s8", "B": "u8", "h": "s16", "H": "u16",
        "i": "s32", "I": "u32", "q": "s64", "Q": "u64",
        "f": "f32", "d": "f64",
    }

    def _start_read_chunks(self):
        self._rchunk = []
        self._rchunk_size = 0

    def read_atom_into(self, pres, lvalue, cast=""):
        codec = self.fmt.atom_codec(
            self.presc.mint_registry.resolve(pres.mint)
        )
        pad = -self._rchunk_size % codec.alignment
        offset = self._rchunk_size + pad
        decode = "flick_decode_%s" % self._DECODE_FNS[codec.format]
        if codec.conversion == "char":
            cast = cast or "(char)"
        self._rchunk.append((offset, decode, lvalue, cast, codec.alignment))
        self._rchunk_size = offset + codec.size

    def flush_reads(self):
        if not self._rchunk:
            return
        entries, self._rchunk = self._rchunk, []
        size, self._rchunk_size = self._rchunk_size, 0
        w = self.w
        align = max(entry[4] for entry in entries)
        w.line("_rchunk = (const char *)flick_align(_base, _cursor, %d);"
               % align)
        for offset, decode, lvalue, cast, _alignment in entries:
            w.line("%s = %s%s(_rchunk + %d);" % (lvalue, cast, decode,
                                                 offset))
        w.line("_cursor = _rchunk + %d;" % size)

    def emit_decode_into(self, pres, lvalue):
        """Unmarshal one value from the cursor into C lvalue storage."""
        w = self.w
        if isinstance(pres, p.PresVoid):
            return
        if isinstance(pres, p.PresRef):
            from repro.mint.analysis import is_recursive

            if is_recursive(pres.mint, self.presc.mint_registry):
                # Recursive data decodes through a runtime helper.
                self._decode_helpers.add(pres.name)
                self.flush_reads()
                w.line("%s = *(_flick_u_%s(&_cursor));"
                       % (lvalue, pres.name.replace("::", "_")))
                return
            self.emit_decode_into(
                self.presc.pres_registry[pres.name], lvalue
            )
            return
        if isinstance(pres, (p.PresDirect, p.PresEnum)):
            cast = ""
            if isinstance(pres, p.PresEnum):
                cast = "(%s)" % pres.c_type_name
            self.read_atom_into(pres, lvalue, cast)
            return
        if isinstance(pres, p.PresString):
            self.flush_reads()
            length = self.temp("_len")
            w.line("%s = flick_decode_u32("
                   "(_cursor = flick_align(_base, _cursor, 4)));" % length)
            w.line("_cursor += 4;")
            w.line("/* string data stays in the receive buffer (3.1) */")
            w.line("%s = (char *)(size_t)_cursor;" % lvalue)
            if self.fmt.pads_byte_runs(pres.mint):
                w.line("_cursor += (%s + 3) & ~3u;" % length)
            else:
                w.line("_cursor += %s;" % length)
            return
        if isinstance(pres, p.PresBytes):
            self.flush_reads()
            if pres.fixed_length is not None:
                total = pres.fixed_length
                if self.fmt.pads_byte_runs(pres.mint):
                    total += -pres.fixed_length % 4
                w.line("memcpy(%s, _cursor, %d);"
                       % (lvalue, pres.fixed_length))
                w.line("_cursor += %d;" % total)
                return
            length = self.temp("_len")
            w.line("%s = flick_decode_u32("
                   "(_cursor = flick_align(_base, _cursor, 4)));" % length)
            w.line("_cursor += 4;")
            w.line("%s._length = %s;" % (lvalue, length))
            w.line("%s._buffer = (flick_u8 *)(size_t)_cursor;" % lvalue)
            if self.fmt.pads_byte_runs(pres.mint):
                w.line("_cursor += (%s + 3) & ~3u;" % length)
            else:
                w.line("_cursor += %s;" % length)
            return
        if isinstance(pres, p.PresFixedArray):
            self.flush_reads()
            index = self.temp("_i")
            w.line("for (%s = 0; %s < %d; %s++) {"
                   % (index, index, pres.length, index))
            w.indent()
            self.emit_decode_into(pres.element, "%s[%s]" % (lvalue, index))
            self.flush_reads()
            w.dedent()
            w.line("}")
            return
        if isinstance(pres, p.PresCountedArray):
            self.flush_reads()
            length = self.temp("_len")
            w.line("%s = flick_decode_u32("
                   "(_cursor = flick_align(_base, _cursor, 4)));" % length)
            w.line("_cursor += 4;")
            w.line("%s._length = %s;" % (lvalue, length))
            element_type = self._element_c_text(pres.element)
            w.line("/* elements on the dispatch stack (3.1) */")
            w.line("%s._buffer = flick_stack_alloc(%s * sizeof(%s));"
                   % (lvalue, length, element_type))
            index = self.temp("_i")
            w.line("for (%s = 0; %s < %s; %s++) {"
                   % (index, index, length, index))
            w.indent()
            self.emit_decode_into(
                pres.element, "%s._buffer[%s]" % (lvalue, index)
            )
            self.flush_reads()
            w.dedent()
            w.line("}")
            return
        if isinstance(pres, p.PresOptPtr):
            self.flush_reads()
            flag = self.temp("_len")
            w.line("%s = flick_decode_u32("
                   "(_cursor = flick_align(_base, _cursor, 4)));" % flag)
            w.line("_cursor += 4;")
            w.line("if (%s == 0) {" % flag)
            w.indent()
            w.line("%s = 0;" % lvalue)
            w.dedent()
            w.line("} else {")
            w.indent()
            element_type = self._element_c_text(pres.element)
            w.line("%s = flick_stack_alloc(sizeof(%s));"
                   % (lvalue, element_type))
            self.emit_decode_into(pres.element, "(*%s)" % lvalue)
            self.flush_reads()
            w.dedent()
            w.line("}")
            return
        if isinstance(pres, (p.PresStruct, p.PresException)):
            for struct_field in pres.fields:
                self.emit_decode_into(
                    struct_field.pres, "%s.%s" % (lvalue, struct_field.name)
                )
            return
        if isinstance(pres, p.PresUnion):
            self.flush_reads()
            self.read_atom_into(pres.discriminator, "%s._d" % lvalue)
            self.flush_reads()
            w.line("switch (%s._d) {" % lvalue)
            for arm in pres.arms:
                if arm.is_default:
                    w.line("default:")
                else:
                    for label in arm.labels:
                        w.line("case %s:" % _c_label(label))
                w.indent()
                if not isinstance(arm.pres, p.PresVoid):
                    self.emit_decode_into(
                        arm.pres, "%s._u.%s" % (lvalue, arm.name)
                    )
                    self.flush_reads()
                w.line("break;")
                w.dedent()
            w.line("}")
            return
        raise BackEndError(
            "the C printer cannot decode presentation node %s (into %s)"
            % (type(pres).__name__, lvalue))

    def _element_c_text(self, element_pres):
        from repro.cast.emit import CEmitter

        policy_type = self.backend_policy_type(element_pres)
        return CEmitter().declarator(policy_type, "").strip()

    def backend_policy_type(self, pres):
        """The element C type, resolved like the presentation did."""
        target = pres
        if isinstance(target, p.PresRef):
            resolved = self.presc.pres_registry[target.name]
            if isinstance(resolved, p.PresStruct):
                from repro.cast import nodes as cn

                return cn.TypeName("struct %s" % resolved.record_name)
            if isinstance(resolved, p.PresUnion):
                from repro.cast import nodes as cn

                return cn.TypeName("struct %s" % resolved.union_name)
            target = resolved
        from repro.cast import nodes as cn

        if isinstance(target, (p.PresDirect, p.PresEnum)):
            return cn.TypeName(target.c_type_name)
        if isinstance(target, p.PresString):
            return cn.Pointer(cn.TypeName("char"))
        if isinstance(target, p.PresStruct):
            return cn.TypeName("struct %s" % target.record_name)
        if isinstance(target, p.PresUnion):
            return cn.TypeName("struct %s" % target.union_name)
        if isinstance(target, p.PresBytes):
            return cn.TypeName("flick_octet_seq")
        return cn.TypeName("char")  # fallback for exotic nesting

    def _work_fn_decl(self, stub):
        """The extern work-function prototype the skeleton calls."""
        from repro.cast import nodes as cn

        params = tuple(
            param for param in stub.c_decl.parameters
            if param.name not in ("_obj", "_ev", "clnt")
        )
        return cn.FuncDecl(
            stub.c_decl.return_type,
            "%s_server" % stub.stub_name,
            params,
        )

    def emit_serve_stub(self, stub):
        from repro.cast import nodes as cn
        from repro.cast.emit import CEmitter

        w = self.w
        work_decl = self._work_fn_decl(stub)
        w.line("extern %s;" % CEmitter()._prototype(work_decl))
        w.line("int _flick_serve_%s(flick_buf_t *_in, void *_impl,"
               % stub.operation_name)
        w.line("                    flick_buf_t *_out)")
        w.line("{")
        w.indent()
        w.line("const char *_base = _in->data;")
        body_offset = self.backend._request_body_offset(self.presc, stub)
        if body_offset is None:
            w.line("const char *_cursor = _in->data"
                   " + flick_giop_body_offset(_in);")
        else:
            w.line("const char *_cursor = _in->data + %d;" % body_offset)
        w.line("const char *_rchunk;")
        w.line("char *_chunk;")
        w.line("flick_buf_t *_buf = _out;")
        w.line("(void)_impl; (void)_base; (void)_rchunk; (void)_chunk;")
        w.line("(void)_cursor; (void)_buf;")
        self.begin_function()
        self._start_read_chunks()
        w.blank()
        # Unmarshal in-parameters into dispatch-frame locals (3.1).
        param_types = {
            param.name: param.type for param in stub.c_decl.parameters
        }
        rpcgen_style = self.presc.presentation_style == "rpcgen"
        emitter = CEmitter()
        locals_by_name = {}
        declared = set()
        for parameter in stub.parameters:
            if parameter.direction == "return":
                continue  # carried by _ret / _retp below
            ctype = param_types.get(parameter.name)
            if ctype is None:
                # Not in this presentation's prototype (e.g. rpcgen
                # cannot express out parameters); give the value local
                # storage so the reply can still marshal it.
                ctype = self.backend_policy_type(parameter.pres)
                w.line("%s = {0};"
                       % emitter.declarator(ctype, parameter.name))
                locals_by_name[parameter.name] = parameter
                declared.add(parameter.name)
                continue
            if rpcgen_style or parameter.direction in ("out", "inout"):
                # The prototype passes a pointer; the local is the target.
                ctype = ctype.target
            w.line("%s;" % emitter.declarator(ctype, parameter.name))
            locals_by_name[parameter.name] = parameter
            declared.add(parameter.name)
        work_decl_params = self._work_fn_decl(stub).parameters
        for param in work_decl_params:
            if param.name not in declared:
                # Presentation-only parameters (e.g. the corba-c-len
                # explicit string length) get default-initialized locals.
                w.line("%s = {0};"
                       % emitter.declarator(param.type, param.name))
                declared.add(param.name)
        return_type = stub.c_decl.return_type
        returns_value = not (
            isinstance(return_type, cn.TypeName)
            and return_type.name == "void"
        )
        if returns_value:
            if rpcgen_style:
                w.line("%s;" % emitter.declarator(return_type, "_retp"))
            else:
                w.line("%s;" % emitter.declarator(return_type, "_ret"))
        w.blank()
        for parameter in stub.parameters:
            if parameter.is_in and parameter.name in locals_by_name:
                self.emit_decode_into(parameter.pres, parameter.name)
        self.flush_reads()
        w.blank()
        # Invoke the work function.
        arguments = []
        for param in work_decl.parameters:
            pres_param = locals_by_name.get(param.name)
            if rpcgen_style or (
                pres_param is not None
                and pres_param.direction in ("out", "inout")
            ):
                arguments.append("&%s" % param.name)
            else:
                arguments.append(param.name)
        call = "%s(%s)" % (work_decl.name, ", ".join(arguments))
        if returns_value:
            target = "_retp" if rpcgen_style else "_ret"
            w.line("%s = %s;" % (target, call))
        else:
            w.line("%s;" % call)
        if stub.oneway:
            w.line("return 0;")
            self.end_function_temps()
            w.dedent()
            w.line("}")
            w.blank()
            return
        w.blank()
        # Marshal the success reply (exception arms are served by the
        # executable Python stubs; the C artifact shows the happy path).
        reply_spec = self.backend.reply_header(self.presc, stub)
        size = len(reply_spec.template)
        if size:
            w.line("flick_check_room(_buf, %d);" % size)
            w.line("memcpy(flick_buf_ptr(_buf), _flick_rep_hdr_%s, %d);"
                   % (stub.operation_name, size))
            w.line("flick_buf_advance(_buf, %d);" % size)
        from repro.mint.types import MintInteger

        self.add_atom(self.fmt.atom_codec(MintInteger(32, False)), "0")
        success = stub.reply_pres.arms[0].pres
        for struct_field in success.fields:
            if struct_field.name == "_return":
                expr = "(*_retp)" if rpcgen_style else "_ret"
            else:
                expr = struct_field.name
            self.emit_marshal(struct_field.pres, expr)
        self.flush()
        if reply_spec.size_patch is not None:
            offset, _fmt, delta = reply_spec.size_patch
            w.line("*(flick_u32 *)(void *)(_buf->data + %d) ="
                   " (flick_u32)(_buf->length - %d);" % (offset, delta))
        w.line("return 1;")
        self.end_function_temps()
        w.dedent()
        w.line("}")
        w.blank()


def _mangle_c(name):
    return name.replace("::", "_")


def _c_label(label):
    """Render a union case label as a C constant expression."""
    if isinstance(label, bool):
        return "1" if label else "0"
    if isinstance(label, int):
        return str(label)
    if isinstance(label, str) and len(label) == 1:
        return "'%s'" % (label if label.isprintable() and label not in
                         ("'", "\\") else "\\x%02x" % ord(label))
    raise BackEndError(
        "the C printer cannot render PresUnion case label %r" % (label,))


def interface_file_stem(presc, backend):
    """The output file stem shared by the CLI and the #include line."""
    return "%s_%s" % (
        presc.interface_name.replace("::", "_").lower(),
        backend.name.replace("-", "_"),
    )


def _prototype_text(declaration):
    from repro.cast.emit import CEmitter

    return CEmitter()._prototype(declaration)


def emit_c_stubs(backend, presc, flags):
    """Render the C fidelity artifact; returns (c_source, c_header)."""
    header_lines = [
        "/* Flick-generated header for %s (%s). */" % (
            presc.interface_name, backend.name
        ),
        "#ifndef FLICK_%s_H" % _mangle_c(presc.interface_name).upper(),
        "#define FLICK_%s_H" % _mangle_c(presc.interface_name).upper(),
        "",
        _RUNTIME_HEADER,
        '#include "flick-runtime.h"',
        "",
        emit_c(presc.c_decls),
        "#endif",
        "",
    ]
    # Discovery pass: find the recursive types needing out-of-line
    # functions, so their definitions can precede the stubs that call them.
    scout = CStubEmitter(backend, presc)
    for stub in presc.stubs:
        scout.emit_client_stub(stub)
        scout.emit_serve_stub(stub)
    emitter = CStubEmitter(backend, presc)
    emitter._outlined = set(scout._outlined)
    emitter._pending = sorted(scout._outlined)
    emitter.line("/* Flick-generated stubs for %s (%s back end). */"
                 % (presc.interface_name, backend.name))
    emitter.line('#include <string.h>')
    emitter.line('#include "flick-runtime.h"')
    emitter.line('#include "%s.h"' % interface_file_stem(presc, backend))
    emitter.line("")
    for helper in sorted(scout._decode_helpers):
        ctype = helper.replace("::", "_")
        emitter.line("extern %s *_flick_u_%s(const char **cursor);"
                     % (ctype, ctype))
    if scout._decode_helpers:
        emitter.line("")
    emitter.emit_header_constants()
    emitter.drain_outlined()
    for stub in presc.stubs:
        emitter.emit_client_stub(stub)
        emitter.emit_serve_stub(stub)
    emitter.emit_dispatch()
    return emitter.w.getvalue(), "\n".join(header_lines)
