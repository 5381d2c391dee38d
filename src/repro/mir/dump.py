"""Textual dumps of marshal IR for ``flick ir`` and the golden tests.

The format is deterministic: one line per op, nested bodies indented,
value expressions printed verbatim.  It is a debugging surface, not a
parseable interchange format.
"""

from __future__ import annotations

from repro.mir import ops as m


def dump_program(program, op_filter=None):
    """Dump *program* as text; *op_filter* keeps one operation's stubs."""
    lines = []
    lines.append("mir program %s via %s"
                 % (program.interface_name, program.wire_name))
    if program.passes:
        lines.append("passes: " + " ".join(
            "%s=%s" % (name, "on" if enabled else "off")
            for name, enabled in program.passes.items()
        ))
    else:
        lines.append("passes: not run")
    if program.aliases:
        for dropped in sorted(program.aliases):
            lines.append("alias %s -> %s"
                         % (dropped, program.aliases[dropped]))
    for fn in program.functions:
        if op_filter is not None and fn.operation != op_filter:
            continue
        lines.append("")
        tags = [fn.kind]
        if fn.chunks:
            tags.append("chunks=%d" % fn.chunks)
        if fn.atoms:
            tags.append("atoms=%d" % fn.atoms)
        if fn.type_name:
            tags.append("type=%s" % fn.type_name)
        lines.append("func %s(%s)  [%s]"
                     % (fn.name, ", ".join(fn.params), " ".join(tags)))
        for const_name, template in fn.consts.items():
            lines.append("  const %s = %d bytes %r"
                         % (const_name, len(template), template))
        _dump_ops(lines, fn.ops, "  ")
    return "\n".join(lines) + "\n"


def _dump_ops(lines, ops, indent):
    for op in ops:
        _dump_op(lines, op, indent)


def _plan_text(plan):
    if plan.kind == "plain":
        return "reserve[%s %s]" % (plan.var, plan.size)
    if plan.kind == "pad_base":
        return "reserve[%s pad=%d %s]" % (plan.var, plan.pad, plan.size)
    return ("reserve[%s align=%d pad=%s %s]"
            % (plan.var, plan.align, plan.pad_var, plan.size))


def _dump_entries(add, op):
    for entry, offset in zip(op.entries, op.offsets):
        star = "*" if entry.star or entry.count > 1 else ""
        add("  +%d %s%s%s <- %s"
            % (offset, star,
               entry.count if entry.count > 1 or entry.star else "",
               entry.fmt, entry.expr))


def _dump_op(lines, op, indent):
    add = lambda text: lines.append(indent + text)  # noqa: E731
    if isinstance(op, m.PutHeader):
        patches = "".join(
            " patch@%d:%s<-%s" % patch for patch in op.patches
        )
        add("PutHeader %s len=%d%s"
            % (op.const, len(op.template), patches))
    elif isinstance(op, m.HeaderPatch):
        add("HeaderPatch @%d %s = b.length - %d"
            % (op.offset, op.fmt, op.delta))
    elif isinstance(op, m.PutAtoms):
        start = "@%s" % op.start if op.start is not None else "@dyn"
        add("PutAtoms %s '%s%s' total=%d %s %s"
            % (start, op.endian, op.fmt, op.total,
               "batched" if op.batched else "unbatched",
               _plan_text(op.reserve)))
        _dump_entries(add, op)
    elif isinstance(op, m.GetAtoms):
        add("GetAtoms %s = '%s%s' total=%d%s"
            % (op.var, op.endian, op.fmt, op.total,
               " single" if op.single else ""))
    elif isinstance(op, m.AlignTo):
        if op.mode == "pad":
            add("AlignTo o += %d" % op.pad)
        else:
            add("AlignTo o %%= %d" % op.align)
    elif isinstance(op, m.GetArrayHeader):
        add("GetArrayHeader %s = '%s%s'[%d] advance=%d"
            % (op.var, op.endian, op.fmt, op.index, op.advance))
    elif isinstance(op, m.CopyRun):
        header = (" header='%s'<-(%s)" % (op.header[0],
                                          ", ".join(op.header[1]))
                  if op.header else "")
        count = (str(op.static_count) if op.static_count is not None
                 else op.n_expr)
        add("CopyRun %s n=%s%s nul=%d pad4=%s %s <- %s"
            % (op.variant, count, header, op.nul, op.pad_to4,
               _plan_text(op.reserve), op.data_expr))
    elif isinstance(op, m.PutAtomArray):
        add("PutAtomArray %s '%s%s'*%s %s <- %s"
            % (op.variant, op.endian, op.fmt, op.n_expr,
               _plan_text(op.reserve), op.data_expr))
    elif isinstance(op, m.GetAtomArray):
        add("GetAtomArray %s = '%s%s'*%s conv=%s"
            % (op.var, op.endian, op.fmt, op.count_expr, op.conversion))
    elif isinstance(op, m.PutArrayRegion):
        add("PutArrayRegion '%s%s' stride=%d n=%s %s: %s in %s"
            % (op.endian, op.fmt, op.stride, op.n_expr,
               _plan_text(op.reserve), op.var, op.iterable))
        for bind in op.binds:
            add("  Bind %s = %s" % (bind.var, bind.expr))
        _dump_entries(add, op)
    elif isinstance(op, m.GetArrayRegion):
        add("GetArrayRegion %s = '%s%s' stride=%d n=%s: %s -> %s"
            % (op.var, op.endian, op.fmt, op.stride, op.count_expr,
               op.tuple_var, op.element_expr))
    elif isinstance(op, m.GetRun):
        add("GetRun %s = %s n=%s nul=%d mode=%s pad4=%s"
            % (op.var, op.kind, op.count_expr, op.nul, op.mode,
               op.pad_to4))
    elif isinstance(op, m.CheckRemaining):
        add("CheckRemaining %s" % op.size_expr)
    elif isinstance(op, m.ReserveOne):
        add("ReserveOne %s" % op.var)
    elif isinstance(op, m.StoreByte):
        add("StoreByte [%s] <- %s" % (op.offset_var, op.value_expr))
    elif isinstance(op, m.PadToFour):
        add("PadToFour %s %s" % (op.pad_var, op.offset_var))
    elif isinstance(op, m.BoundsCheck):
        add("BoundsCheck %s -> %s(%r)"
            % (op.cond, op.error, op.message))
    elif isinstance(op, m.Bind):
        add("Bind %s = %s" % (op.var, op.expr))
    elif isinstance(op, m.ExprStmt):
        add("Expr %s" % op.expr)
    elif isinstance(op, m.CallOutOfLine):
        if op.kind == "m":
            add("CallOutOfLine %s(b, %s)" % (op.function, op.arg_expr))
        else:
            add("CallOutOfLine %s, o = %s(d, o)"
                % (op.var, op.function))
    elif isinstance(op, m.Loop):
        if op.kind == "range":
            add("Loop range %s:" % op.count_expr)
        else:
            add("Loop %s %s in %s:" % (op.kind, op.var, op.iterable))
        _dump_ops(lines, op.body, indent + "  ")
    elif isinstance(op, m.ListLoop):
        add("ListLoop %s tail=%s%s:"
            % (op.kind, op.tail_name,
               " record=%s" % op.record if op.record else ""))
        for label, body in (("node", op.node_ops), ("flag", op.flag_ops),
                            ("stop", op.stop_ops), ("next", op.next_ops),
                            ("head", op.head_ops)):
            if body:
                add("  %s:" % label)
                _dump_ops(lines, body, indent + "    ")
    elif isinstance(op, m.Branch):
        for arm in op.arms:
            add("Branch %s:" % (arm.cond if arm.cond is not None
                                else "else"))
            _dump_ops(lines, arm.body, indent + "  ")
    elif isinstance(op, m.Raise):
        if op.value_expr:
            add("Raise %s" % op.value_expr)
        else:
            add("Raise %s(%s)" % (op.error, op.message_expr))
    elif isinstance(op, m.CheckEnd):
        add("CheckEnd")
    elif isinstance(op, m.Return):
        add("Return %s %s" % (op.kind, ", ".join(op.exprs)))
    elif isinstance(op, m.ReplyErrorTail):
        add("ReplyErrorTail:")
        _dump_ops(lines, op.ops, indent + "  ")
    else:
        add(repr(op))
