"""The C renderer: Flick-style C stubs printed from the marshal IR.

The C artifact is the same :class:`~repro.mir.ops.MirProgram` the Python
stubs run, lowered through this module's spelling table
(:data:`SPELLING`) instead of the Python one: the same ops, offsets,
formats, reserve plans, header patches, checks, regions and loops, so a
disabled pass changes the C exactly as it changes the Python.  What the
table spells is the C presentation — parameters as declared (``(*arg)``
where passed by pointer), ``v._length`` / ``v._buffer[_i1]`` for
sequences, ``v->next`` for lists, and, on the decode side, stores into
the presented storage (``r.ul.x = _t3_0``) instead of built values.

Each op prints as a fixed statement pattern over the runtime vocabulary
of ``flick-runtime.h``: ``flick_reserve`` (one free-space check per
chunk), ``flick_put_s32be(_buf->data + _o3 + 4, x)`` (constant offsets
from the chunk's start, byte order explicit), ``memcpy`` for byte runs,
a ``switch`` on the demux word.  The module scaffolding — client stubs
that send and decode the reply, server skeletons that decode, call the
work function ``<stub>_server`` and encode the reply, the dispatch
switch — takes every type and prototype from PRES_C's CAST declarations.
"""

from __future__ import annotations

import re
import struct
from contextlib import contextmanager

from repro.backend import interface_file_stem
from repro.backend.pywriter import PyWriter
from repro.cast import nodes as cn
from repro.cast.emit import CEmitter, emit_c
from repro.errors import BackEndError

#: struct format character -> (accessor suffix, size).
_ATOMS = {"b": ("s8", 1), "B": ("u8", 1), "h": ("s16", 2), "H": ("u16", 2),
          "i": ("s32", 4), "I": ("u32", 4), "q": ("s64", 8), "Q": ("u64", 8),
          "f": ("f32", 4), "d": ("f64", 8)}

#: Out-of-line functions and how they fail: helpers, and the exception
#: replies (printed, never called: a C work function raises nothing).
_PROTOTYPES = {
    "m_helper": ("void {0}(flick_buf_t *_buf, const {1} *v)", "return;"),
    "u_helper": ("size_t {0}(const char *_m, size_t _len, size_t _o, {1} *v)",
                 "return (size_t)-1;"),
    "m_rep_exc": ("void {0}(flick_buf_t *_buf, flick_u32 _ctx, const void"
                  " *_exc)", "return;"),
}


def _by_pointer(direction, style):
    """Whether the presentation passes a parameter by pointer."""
    return style == "rpcgen" or direction in ("out", "inout")


def _c_label(label):
    """A union case label as a C constant expression."""
    if isinstance(label, str) and len(label) == 1 and label != "'":
        return repr(label)
    if isinstance(label, int):
        return str(int(label))
    raise BackEndError(
        "the C printer cannot render union case label %r" % (label,))


def _comma(exprs):
    return ", ".join(filter(None, exprs))


class CSpelling:
    """How a value reads in the C presentation (the method contract is
    :class:`repro.mir.render_py.PySpelling`'s)."""

    # -- marshal: reading the presented value --------------------------
    helper_value, true = "(*v)", "1"

    def arg(self, index, name, direction, style, length):
        if _by_pointer(direction, style):
            return "(*%s)" % name
        if length:  # an array parameter is a pointer to its first element
            return "(*(__typeof__(%s[0]) (*)[%d])%s)" % (name, length, name)
        return name

    def reply_value(self, name, style):
        return name if name != "_return" else \
            "(*_ret)" if style == "rpcgen" else "_ret"

    def length(self, expr, kind, fixed=None):
        return "strlen(%s)" % expr if kind == "text" else str(fixed) \
            if kind == "array" else "%s._length" % expr

    def elements(self, expr, counted):
        return expr + ("._buffer" if counted else "")

    def atoms(self, expr, conversion, counted):
        return self.elements(expr, counted)

    def labels(self, disc, labels):
        return " || ".join("%s == %s" % (disc, _c_label(label))
                           for label in labels)

    def exception_value(self, name): return "(*(const %s *)_exc)" % name
    def text_bytes(self, expr, carries_length): return expr
    def stage(self, expr): return expr
    def pack(self, conversion, expr): return expr
    def element(self, seq, index, var): return "%s[%s]" % (seq, index)
    def is_null(self, expr): return "%s == 0" % expr
    def deref(self, expr): return "(*%s)" % expr
    def union_split(self, disc, payload, expr): return disc, "%s._d" % expr
    def union_arm(self, payload, expr, name): return "%s._u.%s" % (expr, name)
    def no_arm(self, disc): return "no union arm for discriminator", True

    # -- unmarshal: storing into the presented storage -----------------
    none, builds_records = "", False
    dest_deref = deref

    def dest_param(self, name): return name
    def dest_exception(self, name): return "_flick_x_%s" % name
    def dest_field(self, dest, name): return "%s.%s" % (dest, name)
    def dest_index(self, dest, index): return "%s[%d]" % (dest, index)
    def dest_arm(self, dest, name): return self.union_arm("", dest, name)

    def dest_result(self, name, style):
        return "_ret" if name == "_return" else "(*%s)" % name

    def dest_element(self, dest, index, counted):
        return self.element(self.elements(dest, counted), index, "")

    def item(self, var, index, count, dest, whole=False):
        name = "%s_%d" % (var, index)
        return name if not dest else "%s = %s" % (dest, name) \
            if count is None else "flick_copy_n(%s, %s, %d)" % (dest, name,
                                                                count)

    def unpack(self, conversion, expr): return expr
    def target(self, var, dest): return dest
    def produced(self, var): return ""
    def record(self, name, exprs): return _comma(exprs)
    list_of = tuple = staticmethod(_comma)
    def atom_list(self, conversion, expr): return expr
    def hold(self, var, expr): return "", expr
    def append(self, append, expr): return expr
    def empty(self, var, dest): return "", "%s._length = 0" % dest
    def absent(self, var, dest): return "", "%s = 0" % dest
    def union_value(self, var, disc, payload): return "", payload

    def list_init(self, var, append, dest, count, counted):
        return [("", "flick_alloc_seq(%s, %s)" % (dest, count)
                 if counted else ""), ("", "")]

    def present(self, count, dest):
        return "%s == 1 && (%s = flick_alloc(sizeof *%s)) != 0" % (
            count, dest, dest)


SPELLING = CSpelling()


def render_c(backend, presc, flags):
    """Return ``(c_source, c_header)`` for *presc* under *flags*."""
    from repro.mir.build import build_program
    from repro.mir.passes import PassManager

    program = PassManager(flags).run(
        build_program(backend, presc, flags, SPELLING))
    guard = "FLICK_%s_H" % presc.interface_name.replace("::", "_").upper()
    header = ('/* Flick-generated header for %s (%s). */\n#ifndef %s\n'
              '#define %s\n\n#include "flick-runtime.h"\n\n%s#endif\n' % (
                  presc.interface_name, backend.name, guard, guard,
                  emit_c(presc.c_decls)))
    return _Module(backend, presc).source(program), header


def _accessor(kind, fmt):
    """The load or store of one ``">I"``-style atom."""
    return "flick_%s_%s%s" % (kind, _ATOMS[fmt[1]][0],
                              "be" if fmt[0] == ">" else "le")


def _layout(fmt):
    """``(element index, offset, format char, count, starred)`` of every
    field of a struct format (pads skipped): the index counts the atoms
    before the field, as a decoded tuple does; an explicit count marks an
    array."""
    parts = re.findall(r"(\d*)([a-zA-Z])", fmt)
    return [(sum(int(n or 1) for n, c in parts[:at] if c != "x"),
             struct.calcsize("<" + "".join(map("".join, parts[:at]))), char,
             int(count or 1), bool(count))
            for at, (count, char) in enumerate(parts) if char != "x"]


#: Ops printed as fixed statements over their own fields, and checks.
_STATEMENTS = {
    "ReserveOne": "size_t {var} = flick_reserve(_buf, 1);",
    "StoreByte": "_buf->data[{offset_var}] = {value_expr};",
    "PadToFour": "flick_reserve_padded(_buf, -_buf->length % 4, 0);",
    "ExprStmt": "{expr};",
    "Bind": "{expr};",
}
_CHECKS = {
    "CheckRemaining": ("_o + ({size_expr}) > _len", "message truncated"),
    "CheckEnd": ("_o != _len", "reply carries trailing bytes"),
    "BoundsCheck": ("{cond}", "{message}"),
}


class _Module:
    """Prints one interface's ``.c`` file.  ``fail`` and ``ok`` are the
    return statements of the function being printed; ``depth`` counts
    the loops open around it (their indexes are ``_i1``, ``_i2``...)."""

    def __init__(self, backend, presc):
        self.backend, self.presc = backend, presc
        self.w, self.depth, self.ok = PyWriter(), 0, "return;"

    def line(self, text, *args):
        text = text % args if args else text
        if text.strip(";"):  # an empty store prints nothing
            self.w.paste(text.split("\n"))

    def source(self, program):
        presc, line = self.presc, self.line
        line('/* Flick-generated stubs for %s (%s back end), printed from the'
             ' marshal IR. */\n#include <string.h>\n#include "flick-runtime.h"'
             '\n#include "%s.h"', presc.interface_name, self.backend.name,
             interface_file_stem(presc.interface_name, self.backend.name))
        for name, template in [item for fn in program.functions
                               for item in fn.consts.items() if item[1]]:
            line('static const char %s[%d] = "%s";', name, len(template),
                 "".join("\\x%02x" % byte for byte in template))
        for name in sorted(presc.exception_classes.values()):
            line("static %s _flick_x_%s;", name, name)
        out_of_line = [fn for fn in program.functions
                       if fn.kind in _PROTOTYPES]
        prototypes = ["FLICK_LOCAL " + _PROTOTYPES[fn.kind][0].format(
            fn.name, fn.type_name.replace("::", "_")) for fn in out_of_line]
        line("\n".join(prototype + ";" for prototype in prototypes))
        for fn, prototype in zip(out_of_line, prototypes):
            self.fail = _PROTOTYPES[fn.kind][1]
            with self._braces(prototype + "\n{"):
                self._ops(fn.ops)
        for stub in presc.stubs:
            fns = {fn.name[:-len(stub.operation_name) - 1]: fn.ops
                   for fn in program.functions
                   if fn.operation == stub.operation_name}
            self._client(stub, fns)
            self._skeleton(stub, fns)
        self._dispatch()
        return self.w.getvalue()

    # -- scaffolding ----------------------------------------------------

    @contextmanager
    def _braces(self, opener="{"):
        self.line(opener)
        self.w.indent()
        yield
        self.w.dedent()
        self.line("}" if self.w.depth else "}\n")

    def _decoding(self, buffer, offset, ops):
        with self._braces("{\n    FLICK_DECODING(%s, %s);" % (
                buffer, "flick_body_offset(%s)" % buffer if offset is None
                else offset)):
            self._ops(ops)

    def _client(self, stub, fns):
        decl, line, emitter = stub.c_decl, self.line, CEmitter()
        rpcgen = self.presc.presentation_style == "rpcgen"
        void = decl.return_type == cn.TypeName("void")
        handle, obj = ("clnt", "(flick_object_t)clnt") if rpcgen \
            else ("_obj", "_obj")
        # A failed check has been reported to flick_error() already.
        self.ok = self.fail = "return;" if void else "return %s_ret;" % (
            "&" * rpcgen)
        line(emitter._prototype(decl))
        with self._braces():
            line("flick_buf_t *_buf = flick_stream_buffer(%s);", handle)
            if self.backend.request_header(self.presc, stub).patches:
                line("flick_u32 _ctx = flick_next_id();")
            if not void:  # rpcgen returns a pointer to static storage
                ctype = decl.return_type.target if rpcgen \
                    else decl.return_type
                line("static %s;", emitter.declarator(
                    cn.TypeName("int") if ctype == cn.TypeName("void")
                    else ctype, "_ret"))
            self._ops(fns["_m_req"])
            if stub.oneway:
                line("flick_send(%s, _buf);", obj)
                return line(self.ok)
            line("flick_send_await_reply(%s, _buf);", obj)
            self._decoding("_buf", self.backend._reply_body_offset(
                self.presc, stub), fns["_u_rep"])

    def _skeleton(self, stub, fns):
        decl, line, emitter = stub.c_decl, self.line, CEmitter()
        by_pointer = {param.name for param in stub.parameters if _by_pointer(
            param.direction, self.presc.presentation_style)}
        work = cn.FuncDecl(decl.return_type, "%s_server" % stub.stub_name,
                           tuple(param for param in decl.parameters
                                 if param.name not in ("_obj", "_ev", "clnt")))
        line("extern %s;\nint _flick_serve_%s(flick_buf_t *_in, void *_impl,"
             " flick_buf_t *_out)", emitter._prototype(work),
             stub.operation_name)
        with self._braces():
            args = []
            for param in work.parameters:
                pointer = param.name in by_pointer
                args.append("&" * pointer + param.name)
                line("%s = {0};", emitter.declarator(
                    param.type.target if pointer else param.type, param.name))
            call = "%s(%s);" % (work.name, ", ".join(args))
            if stub.return_param is not None:
                line("%s;", emitter.declarator(decl.return_type, "_ret"))
                call = "_ret = " + call
            self.fail = "return -1;"
            self._decoding("_in", self.backend._request_body_offset(
                self.presc, stub), fns["_u_req"])
            line(call)
            if stub.oneway:
                return line("return 0;")
            with self._braces():
                line("flick_buf_t *_buf = _out;")
                for offset, fmt, _ctx in self.backend.request_header(
                        self.presc, stub).patches:
                    line("flick_u32 _ctx = %s(_in->data + %d);",
                         _accessor("get", fmt), offset)
                self._ops(fns["_m_rep_ok"])
            line("return 1;")

    def _dispatch(self):
        """The demux switch: integer request codes directly; operation
        names a word at a time, one nested switch per shared word."""
        keys = []
        for stub in self.presc.stubs:
            key = self.backend.demux_key(self.presc, stub)
            key = struct.pack(">I", key) if isinstance(key, int) \
                else key + b"\0" * (4 - len(key) % 4)
            keys.append((struct.unpack(">%dI" % (len(key) // 4), key),
                         stub.operation_name))
        self.line("int %s_dispatch(flick_buf_t *_in, void *_impl,"
                  " flick_buf_t *_out)",
                  self.presc.interface_name.replace("::", "_"))
        with self._braces():
            self.line("/* Word-at-a-time discriminator switch (3.3). */")
            self._switch(keys, 0)

    def _switch(self, keys, word):
        groups = {}
        for key, operation in keys:
            groups.setdefault(key[word], []).append((key, operation))
        with self._braces("switch (flick_demux_word(_in, %d)) {" % word):
            for value, group in groups.items():
                with self._braces("case 0x%08xu: {" % value):
                    if len(group) > 1:
                        self._switch(group, word + 1)
                    else:
                        self.line("return _flick_serve_%s(_in, _impl, _out);",
                                  group[0][1])
            self.line("default: return FLICK_NO_SUCH_OPERATION;")

    # -- ops ------------------------------------------------------------

    def _ops(self, ops):
        for op in ops:
            name = type(op).__name__
            if name in _CHECKS:
                self._check(*(text.format(**vars(op))
                              for text in _CHECKS[name]))
            elif name == "Bind" and op.var:
                self.line("__auto_type %s = %s;", op.var, op.expr)
            elif name in _STATEMENTS:
                self.line(_STATEMENTS[name].format(**vars(op)))
            else:
                getattr(self, "_" + name)(op)

    def _check(self, cond, message):
        self.line('if (%s) {\n    flick_error("%s");\n    %s\n}', cond,
                  message, self.fail)

    @contextmanager
    def _loop(self, count):
        """A ``for`` over *count* indexed by the next ``_i<depth>``."""
        self.depth += 1
        with self._braces("for (size_t _i{0} = 0; _i{0} < {1}; _i{0}++) {{"
                          .format(self.depth, count)):
            yield "_i%d" % self.depth
        self.depth -= 1

    def _reserve(self, plan):
        if plan.kind == "pad_var":
            self.line("size_t %s = -_buf->length %% %d;", plan.pad_var,
                      plan.align)
        self.line("size_t %s = %s;", plan.var, "flick_reserve(_buf, %s)"
                  % plan.size if plan.kind == "plain" else
                  "flick_reserve_padded(_buf, %s, %s)"
                  % (plan.pad_var or plan.pad, plan.size))

    def _put(self, base, fmt, expr, count=1, starred=False):
        """Store *expr* at ``_buf->data + base``; *fmt* is ``">I"``."""
        self.line("for (size_t _k = 0; _k < %s; _k++)\n    %s(_buf->data + %s"
                  " + %d * _k, (%s)[_k]);" % (count, _accessor("put", fmt),
                                             base, _ATOMS[fmt[1]][1], expr)
                  if starred else "%s(_buf->data + %s, %s);"
                  % (_accessor("put", fmt), base, expr))

    def _put_entries(self, base, endian, entries, offsets):
        end = 0
        for entry, offset in zip(entries, offsets):
            if offset > end:
                self.line("memset(_buf->data + %s + %d, 0, %d);", base, end,
                          offset - end)
            self._put("%s + %d" % (base, offset), endian + entry.fmt,
                      entry.expr, entry.count, entry.star or entry.count > 1)
            end = offset + entry.size * entry.count

    def _put_header(self, base, header):
        for index, arg in enumerate(header[1] if header else ()):
            self._put("%s + %d" % (base, 4 * index), header[0], arg)

    def _PutHeader(self, op):
        if op.template:
            self.line("size_t _o0 = flick_reserve(_buf, %d);\n"
                      "memcpy(_buf->data + _o0, %s, %d);", len(op.template),
                      op.const, len(op.template))
        for offset, fmt, expr in op.patches:
            self._put("_o0 + %d" % offset, fmt, expr)

    def _HeaderPatch(self, op):
        self._put("_o0 + %d" % op.offset, op.fmt,
                  "_buf->length" + (" - %d" % op.delta if op.delta else ""))

    def _PutAtoms(self, op):
        self._reserve(op.reserve)
        self._put_entries(op.reserve.var, op.endian, op.entries, op.offsets)

    def _CopyRun(self, op):
        self._reserve(op.reserve)
        base, static = op.reserve.var, op.variant == "static"
        if op.lead_pad:
            self.line("memset(_buf->data + %s, 0, %d);", base, op.lead_pad)
            base = "%s + %d" % (base, op.lead_pad)
        self._put_header(base, op.header)
        count = op.static_count if static else op.n_expr
        data = "_buf->data + %s + %d" % (base, op.position)
        self.line("memcpy(%s, %s, %s%s);", data, op.data_expr, count,
                  " - 1" if op.nul else "")
        if op.nul:
            self.line("(%s)[%s - 1] = 0;", data, count)
        if op.trail_pad or op.pad_to4 and not static:
            self.line("memset(%s + %s, 0, %s);", data, count, op.trail_pad
                      or "-(size_t)%s %% 4" % count)

    def _PutAtomArray(self, op):
        self._reserve(op.reserve)
        self._put_header(op.reserve.var, op.header)
        at = "%s + %d" % (op.reserve.var, op.position)
        if op.variant == "split":
            self._reserve(op.split_reserve)
            at = op.split_reserve.var
        self._put(at, op.endian + op.fmt, op.data_expr, op.n_expr, True)

    def _PutArrayRegion(self, op):
        self._reserve(op.reserve)
        with self._loop(op.n_expr) as index:
            self._ops(op.binds)
            self._put_entries("%s + %d * %s" % (op.reserve.var, op.stride,
                                                index),
                              op.endian, op.entries, op.offsets)

    def _loads(self, var, endian, fmt, base):
        """One local per field of *fmt* at ``_m + base``: ``var_<n>``."""
        for index, offset, char, count, starred in _layout(fmt):
            load = "%s(_m + %s + %d" % (_accessor("get", endian + char),
                                        base, offset)
            declare = "flick_%s %s_%d" % (_ATOMS[char][0], var, index)
            self.line("%s[%d];\nfor (size_t _k = 0; _k < %d; _k++)\n    %s_%d"
                      "[_k] = %s + %d * _k);" % (declare, count, count, var,
                                                 index, load, _ATOMS[char][1])
                      if starred else "%s = %s);" % (declare, load))

    def _GetAtoms(self, op):
        self._loads(op.var, op.endian, op.fmt, "_o")
        self.line("_o += %d;", op.total)

    def _GetArrayHeader(self, op):
        self.line("size_t %s = %s(_m + _o + %d);\n_o += %d;", op.var,
                  _accessor("get", op.endian + "I"), 4 * op.index, op.advance)

    def _AlignTo(self, op):
        self.line("_o += %s;", op.pad if op.mode == "pad"
                  else "-_o %% %d" % op.align)

    def _GetAtomArray(self, op):
        self.line("flick_alloc_seq(%s, %s);\n"
                  "for (size_t _k = 0; _k < %s; _k++)\n"
                  "    %s._buffer[_k] = %s(_m + _o + %d * _k);\n"
                  "_o += %s * %d;", op.var, op.count_expr, op.count_expr,
                  op.var, _accessor("get", op.endian + op.fmt), op.size,
                  op.count_expr, op.size)

    def _GetArrayRegion(self, op):
        if op.counted:
            self.line("flick_alloc_seq(%s, %s);", op.var, op.count_expr)
        with self._loop(op.count_expr) as index:
            self._loads(op.tuple_var, op.endian, op.fmt,
                        "_o + %d * %s" % (op.stride, index))
            self.line("%s;", op.element_expr)
        self.line("_o += %s * %d;", op.count_expr, op.stride)

    def _GetRun(self, op):
        line, n, dest = self.line, op.count_expr, op.var
        if op.fixed:
            line("memcpy(%s, _m + _o, %s);", dest, n)
        elif op.kind == "bytes":
            line("%s._length = %s;\n%s._buffer = %s;", dest, n, dest,
                 "(flick_u8 *)(_m + _o)" if op.mode == "view"
                 else "memcpy(flick_alloc(%s), _m + _o, %s)" % (n, n))
        elif op.nul and op.mode != "slow":
            line("%s = (char *)(_m + _o);  /* left in the receive buffer */",
                 dest)
        else:
            line("%s = flick_strndup(_m + _o, %s%s);", dest, n,
                 " - 1" * op.nul)
        line("_o += %s%s;", n, " + (-(size_t)%s %% 4)" % n * op.pad_to4)

    def _Raise(self, op):
        self.line('flick_error("%s");\n%s', op.message_expr if op.literal
                  and not op.value_expr else op.error or "remote exception",
                  self.fail)

    def _CallOutOfLine(self, op):
        if op.kind == "m":
            return self.line("%s(_buf, (const void *)&(%s));", op.function,
                             op.arg_expr)
        self._check("(_o = %s(_m, _len, _o, (void *)&(%s))) > _len"
                    % (op.function, op.var), "bad %s" % op.name)

    def _Loop(self, op):
        with self._loop(op.count_expr):
            self._ops(op.body)

    def _ListLoop(self, op):
        line, tail = self.line, op.tail_name
        if op.kind == "m":
            with self._braces("for (;;) {"):
                self._ops(op.node_ops)
                with self._braces("if (v->%s == 0) {" % tail):
                    self._ops(op.stop_ops)
                    line("return;")
                self._ops(op.next_ops)
                return line("v = v->%s;", tail)
        self._ops(op.head_ops)
        self.line("%s;", _comma(op.head_exprs))
        line("__auto_type _node = v;")
        with self._braces("for (;;) {"):
            self._ops(op.flag_ops)
            line("if (%s == 0) {\n    _node->%s = 0;\n    return _o;\n}",
                 op.flag_var, tail)
            self._check("%s != 1" % op.flag_var, "bad optional count")
            line("_node = _node->%s = flick_alloc(sizeof *_node);", tail)
            self._ops(op.node_ops)
            self.line("%s;", _comma(op.field_exprs))

    def _Branch(self, op):
        for index, arm in enumerate(op.arms):
            with self._braces("else " * bool(index) + (
                    "{" if arm.cond is None else "if (%s) {" % arm.cond)):
                self._ops(arm.body)

    def _Return(self, op):
        self.line("%s;", _comma(op.exprs) if op.kind in ("args", "value")
                  else "")
        self.line({"args": "", "value": "return _o;", "bare": "return;"}.get(
            op.kind, self.ok))

    def _ReplyErrorTail(self, op):
        self._ops(op.ops)
