"""Render optimized marshal IR to Python stub source.

This renderer is a *thin* consumer: every optimization decision (chunk
formats, constant offsets, reserve plans, loop shapes) was made during
lowering and the pass pipeline; here each op maps to a fixed line
pattern.  Value positions are pasted verbatim — they are already valid
Python expressions over the function's parameters and earlier-bound
variables (the renderer contract, INTERNALS section 10).
"""

from __future__ import annotations

from repro.errors import BackEndError
from repro.mir import ops as m


def render_program(w, program):
    """Render every function (with its constants) of *program*."""
    for line in _runtime_imports(program):
        w.line(line)
    for fn in program.functions:
        for const_name, template in fn.consts.items():
            w.line("%s = %r" % (const_name, template))
        render_function(w, fn)


def _runtime_imports(program):
    """Imports for the names only the bulk-array line patterns use, so
    a module without such arrays carries neither."""
    ops = [op for fn in program.functions for op in m.walk_ops(fn.ops)]
    if any(isinstance(op, m.GetArrayRegion) for op in ops):
        yield "from struct import iter_unpack as _iter_unpack"
    if any(isinstance(op, m.GetAtomArray)
           and op.conversion in ("int", "float") for op in ops):
        yield "from repro.encoding.buffer import atom_list as _atom_list"


def render_function(w, fn):
    w.line("def %s(%s):" % (fn.name, ", ".join(fn.params)))
    w.indent()
    if fn.ops:
        _render_ops(w, fn.ops)
    else:
        w.line("pass")
    w.dedent()
    w.blank()


def _render_ops(w, ops):
    for op in ops:
        _RENDERERS[type(op)](w, op)


# ----------------------------------------------------------------------
# Reservations
# ----------------------------------------------------------------------


def _render_reserve(w, plan):
    if plan.kind == "plain":
        w.line("%s = b.reserve(%s)" % (plan.var, plan.size))
    elif plan.kind == "pad_base":
        w.line("%s = b.reserve(%d + (%s)) + %d"
               % (plan.var, plan.pad, plan.size, plan.pad))
        w.line("b.data[%s - %d:%s] = _Z[:%d]"
               % (plan.var, plan.pad, plan.var, plan.pad))
    elif plan.kind == "pad_var":
        w.line("%s = -b.length %% %d" % (plan.pad_var, plan.align))
        if isinstance(plan.size, int):
            w.line("%s = b.reserve(%s + %d) + %s"
                   % (plan.var, plan.pad_var, plan.size, plan.pad_var))
        else:
            w.line("%s = b.reserve(%s + (%s)) + %s"
                   % (plan.var, plan.pad_var, plan.size, plan.pad_var))
        w.line("b.data[%s - %s:%s] = _Z[:%s]"
               % (plan.var, plan.pad_var, plan.var, plan.pad_var))
    else:
        raise BackEndError("unknown reserve plan %r" % plan.kind)


# ----------------------------------------------------------------------
# Headers
# ----------------------------------------------------------------------


def _render_put_header(w, op):
    size = len(op.template)
    if size:
        w.line("_o0 = b.reserve(%d)" % size)
        w.line("b.data[_o0:_o0 + %d] = %s" % (size, op.const))
        for offset, fmt_text, expr in op.patches:
            w.line("_pack_into(%r, b.data, _o0 + %d, %s)"
                   % (fmt_text, offset, expr))


def _render_header_patch(w, op):
    delta_text = " - %d" % op.delta if op.delta else ""
    w.line("_pack_into(%r, b.data, _o0 + %d, b.length%s)"
           % (op.fmt, op.offset, delta_text))


# ----------------------------------------------------------------------
# Chunks
# ----------------------------------------------------------------------


def _pack_arg(entry):
    star = "*" if entry.star or entry.count > 1 else ""
    return star + entry.expr


def _render_put_atoms(w, op):
    _render_reserve(w, op.reserve)
    if op.batched:
        w.line("_pack_into(%r, b.data, %s, %s)"
               % (op.endian + op.fmt, op.reserve.var,
                  ", ".join(_pack_arg(entry) for entry in op.entries)))
        return
    # Unbatched: one pack per atom, with the inter-atom gaps expressed
    # as leading pad bytes so the wire layout is byte-identical.
    previous_end = 0
    for entry, offset in zip(op.entries, op.offsets):
        gap = offset - previous_end
        starred = entry.star or entry.count > 1
        single = "%d%s" % (entry.count, entry.fmt) if starred else entry.fmt
        if gap:
            single = "%dx%s" % (gap, single)
        at = (op.reserve.var if not previous_end
              else "%s + %d" % (op.reserve.var, previous_end))
        w.line("_pack_into(%r, b.data, %s, %s)"
               % (op.endian + single, at, _pack_arg(entry)))
        previous_end = offset + entry.size * entry.count


def _render_get_atoms(w, op):
    fmt = op.endian + op.fmt
    if op.subscript is not None:
        w.line("%s = _unpack_from(%r, d, o)[%d]"
               % (op.var, fmt, op.subscript))
    else:
        w.line("%s = _unpack_from(%r, d, o)" % (op.var, fmt))
    w.line("o += %d" % op.total)


def _render_align_to(w, op):
    if op.mode == "pad":
        w.line("o += %d" % op.pad)
    else:
        w.line("o += -o %% %d" % op.align)


def _render_get_array_header(w, op):
    w.line("%s = _unpack_from('%s%s', d, o)[%d]"
           % (op.var, op.endian, op.fmt, op.index))
    w.line("o += %d" % op.advance)


# ----------------------------------------------------------------------
# Bulk copies
# ----------------------------------------------------------------------


def _render_copy_run(w, op):
    _render_reserve(w, op.reserve)
    if op.variant == "static":
        base = ("%s + %d" % (op.reserve.var, op.lead_pad)
                if op.lead_pad else op.reserve.var)
        if op.lead_pad:
            w.line("b.data[%s:%s] = _Z[:%d]"
                   % (op.reserve.var, base, op.lead_pad))
        if op.header is not None:
            fmt, args = op.header
            w.line("_pack_into(%r, b.data, %s, %s)"
                   % (fmt, base, ", ".join(args)))
        end = op.position + op.static_count
        w.line("b.data[%s + %d:%s + %d] = %s"
               % (base, op.position, base, end, op.data_expr))
        if op.trail_pad:
            w.line("b.data[%s + %d:%s + %d] = _Z[:%d]"
                   % (base, end, base, end + op.trail_pad, op.trail_pad))
        return
    # Dynamic byte count.
    offset_var = op.reserve.var
    if op.header is not None:
        fmt, args = op.header
        w.line("_pack_into(%r, b.data, %s, %s)"
               % (fmt, offset_var, ", ".join(args)))
    base = ("%s + %d" % (offset_var, op.position)
            if op.position else offset_var)
    w.line("%s = %s + %s" % (op.end_var, base, op.n_expr))
    if op.nul:
        w.line("b.data[%s:%s - 1] = %s" % (base, op.end_var, op.data_expr))
        w.line("b.data[%s - 1] = 0" % op.end_var)
    else:
        w.line("b.data[%s:%s] = %s" % (base, op.end_var, op.data_expr))
    if op.pad_to4:
        w.line("b.data[%s:%s + (-%s %% 4)] = _Z[:-%s %% 4]"
               % (op.end_var, op.end_var, op.n_expr, op.n_expr))


def _render_put_atom_array(w, op):
    if op.variant == "staged":
        w.line("%s = bytearray(%s * %d)"
               % (op.stage_var, op.n_expr, op.size))
        w.line("_pack_into('%s%%d%s' %% %s, %s, 0, *%s)"
               % (op.endian, op.fmt, op.n_expr, op.stage_var,
                  op.data_expr))
        _render_reserve(w, op.reserve)
        if op.header is not None:
            fmt, args = op.header
            w.line("_pack_into(%r, b.data, %s, %s)"
                   % (fmt, op.reserve.var, ", ".join(args)))
        base = ("%s + %d" % (op.reserve.var, op.position)
                if op.position else op.reserve.var)
        w.line("b.data[%s:%s + %s * %d] = %s"
               % (base, base, op.n_expr, op.size, op.stage_var))
        return
    _render_reserve(w, op.reserve)
    if op.header is not None:
        fmt, args = op.header
        w.line("_pack_into(%r, b.data, %s, %s)"
               % (fmt, op.reserve.var, ", ".join(args)))
    if op.variant == "split":
        _render_reserve(w, op.split_reserve)
        at = op.split_reserve.var
    else:
        at = ("%s + %d" % (op.reserve.var, op.position)
              if op.position else op.reserve.var)
    w.line("_pack_into('%s%%d%s' %% %s, b.data, %s, *%s)"
           % (op.endian, op.fmt, op.n_expr, at, op.data_expr))


def _render_get_atom_array(w, op):
    raw = ("_unpack_from('%s%%d%s' %% %s, d, o)"
           % (op.endian, op.fmt, op.count_expr))
    if op.conversion == "char":
        value = "[chr(_c) for _c in %s]" % raw
    elif op.conversion == "bool":
        value = "[bool(_c) for _c in %s]" % raw
    else:
        value = ("_atom_list(%r, %r, d, o, %s)"
                 % (op.endian, op.fmt, op.count_expr))
    w.line("%s = %s" % (op.var, value))
    w.line("o += %s * %d" % (op.count_expr, op.size))


def _render_put_array_region(w, op):
    _render_reserve(w, op.reserve)
    w.line("_pack_into(%s, b.data, %s, *%s)"
           % (op.format_expr(), op.reserve.var, op.leaves_expr()))


def _render_get_array_region(w, op):
    size = "%s * %d" % (op.count_expr, op.stride)
    w.line("%s = [%s for %s in _iter_unpack(%r, memoryview(d)[o:o + %s])]"
           % (op.var, op.element_expr, op.tuple_var, op.endian + op.fmt,
              size))
    w.line("o += %s" % size)


def _render_get_run(w, op):
    if op.kind == "string":
        end = "o + %s%s" % (op.count_expr, " - 1" if op.nul else "")
        if op.mode == "raw":
            w.line("%s = bytes(d[o:%s])" % (op.var, end))
        elif op.mode == "slow":
            w.line("%s = ''.join(map(chr, d[o:%s]))" % (op.var, end))
        else:
            w.line("%s = bytes(d[o:%s]).decode('latin-1')"
                   % (op.var, end))
    else:
        if op.mode == "view":
            w.line("%s = d[o:o + %s]" % (op.var, op.count_expr))
        else:
            w.line("%s = bytes(d[o:o + %s])" % (op.var, op.count_expr))
    if op.pad_to4:
        w.line("o += %s + (-%s %% 4)" % (op.count_expr, op.count_expr))
    else:
        w.line("o += %s" % op.count_expr)


def _render_check_remaining(w, op):
    w.line("if o + (%s) > len(d):" % op.size_expr)
    w.indent()
    w.line("raise UnmarshalError('message truncated')")
    w.dedent()


# ----------------------------------------------------------------------
# Slow byte runs
# ----------------------------------------------------------------------


def _render_reserve_one(w, op):
    w.line("%s = b.reserve(1)" % op.var)


def _render_store_byte(w, op):
    w.line("b.data[%s] = %s" % (op.offset_var, op.value_expr))


def _render_pad_to_four(w, op):
    w.line("%s = -b.length %% 4" % op.pad_var)
    w.line("%s = b.reserve(%s)" % (op.offset_var, op.pad_var))
    w.line("b.data[%s:%s + %s] = _Z[:%s]"
           % (op.offset_var, op.offset_var, op.pad_var, op.pad_var))


# ----------------------------------------------------------------------
# Control flow and statements
# ----------------------------------------------------------------------


def _render_bounds_check(w, op):
    w.line("if %s:" % op.cond)
    w.indent()
    w.line("raise %s(%r)" % (op.error, op.message))
    w.dedent()


def _render_bind(w, op):
    w.line("%s = %s" % (op.var, op.expr))


def _render_expr_stmt(w, op):
    w.line(op.expr)


def _render_call_out_of_line(w, op):
    if op.kind == "m":
        w.line("%s(b, %s)" % (op.function, op.arg_expr))
    else:
        w.line("%s, o = %s(d, o)" % (op.var, op.function))


def _render_loop(w, op):
    if op.kind == "range":
        w.line("for _ in range(%s):" % op.count_expr)
    else:
        w.line("for %s in %s:" % (op.var, op.iterable))
    w.indent()
    _render_ops(w, op.body)
    w.dedent()


def _render_list_loop(w, op):
    if op.kind == "m":
        w.line("while 1:")
        w.indent()
        _render_ops(w, op.node_ops)
        w.line("_nx = v.%s" % op.tail_name)
        w.line("if _nx is None:")
        w.indent()
        _render_ops(w, op.stop_ops)
        w.line("return")
        w.dedent()
        _render_ops(w, op.next_ops)
        w.line("v = _nx")
        w.dedent()
        return
    _render_ops(w, op.head_ops)
    w.line("_node = %s(%s)"
           % (op.record, ", ".join(list(op.head_exprs) + ["None"])))
    w.line("_head = _node")
    w.line("while 1:")
    w.indent()
    _render_ops(w, op.flag_ops)
    w.line("if %s == 0:" % op.flag_var)
    w.indent()
    w.line("return _head, o")
    w.dedent()
    w.line("if %s != 1:" % op.flag_var)
    w.indent()
    w.line("raise UnmarshalError('bad optional count')")
    w.dedent()
    _render_ops(w, op.node_ops)
    w.line("_nxt = %s(%s)"
           % (op.record, ", ".join(list(op.field_exprs) + ["None"])))
    w.line("_node.%s = _nxt" % op.tail_name)
    w.line("_node = _nxt")
    w.dedent()


def _render_branch(w, op):
    for index, arm in enumerate(op.arms):
        if arm.cond is None:
            w.line("else:")
        elif index == 0:
            w.line("if %s:" % arm.cond)
        else:
            w.line("elif %s:" % arm.cond)
        w.indent()
        _render_ops(w, arm.body)
        w.dedent()


def _render_raise(w, op):
    if op.value_expr:
        w.line("raise %s" % op.value_expr)
    elif op.literal:
        w.line("raise %s(%r)" % (op.error, op.message_expr))
    else:
        w.line("raise %s(%s)" % (op.error, op.message_expr))


def _render_check_end(w, op):
    w.line("_chk_end(d, o)")


def _render_return(w, op):
    if op.kind == "args":
        w.line("return (%s), o"
               % (", ".join(op.exprs) + "," if op.exprs else ""))
    elif op.kind == "value":
        w.line("return %s, o" % op.exprs[0])
    elif op.kind == "plain":
        w.line("return %s" % (op.exprs[0] if op.exprs else "None"))
    else:
        w.line("return")


def _render_reply_error_tail(w, op):
    _render_ops(w, op.ops)


_RENDERERS = {
    m.PutHeader: _render_put_header,
    m.HeaderPatch: _render_header_patch,
    m.PutAtoms: _render_put_atoms,
    m.GetAtoms: _render_get_atoms,
    m.AlignTo: _render_align_to,
    m.GetArrayHeader: _render_get_array_header,
    m.CopyRun: _render_copy_run,
    m.PutAtomArray: _render_put_atom_array,
    m.GetAtomArray: _render_get_atom_array,
    m.PutArrayRegion: _render_put_array_region,
    m.GetArrayRegion: _render_get_array_region,
    m.GetRun: _render_get_run,
    m.CheckRemaining: _render_check_remaining,
    m.ReserveOne: _render_reserve_one,
    m.StoreByte: _render_store_byte,
    m.PadToFour: _render_pad_to_four,
    m.BoundsCheck: _render_bounds_check,
    m.Bind: _render_bind,
    m.ExprStmt: _render_expr_stmt,
    m.CallOutOfLine: _render_call_out_of_line,
    m.Loop: _render_loop,
    m.ListLoop: _render_list_loop,
    m.Branch: _render_branch,
    m.Raise: _render_raise,
    m.CheckEnd: _render_check_end,
    m.Return: _render_return,
    m.ReplyErrorTail: _render_reply_error_tail,
}
