"""Build marshal IR from PRES_C: one walk, one :class:`MirProgram`.

This module owns the *function drivers*: which codec functions exist for
an interface, their names, parameters, and the header/body/tail sequence
inside each.  The per-type lowering lives in :mod:`repro.mir.lower`;
protocol policy (header templates, reply-status tails) comes from the
back end's hooks.

:func:`build_operation` lowers one stub's functions; :func:`build_program`
is the loop over it and the drain of the out-of-line helpers they reach,
over every stub (what ``stubs.mir`` and the printers read) or over one
(what a loaded module lowers at the first call of that operation's
codecs).  Functions appear in the program in module emission order — for
each stub: request marshal, request unmarshal, then (unless oneway) the
reply marshals and the reply unmarshal — followed by the out-of-line
helpers in first-reference order.

Every function is lowered through one spelling table: the Python one
unless *spelling* says otherwise (the C artifact passes
:data:`repro.mir.render_c.SPELLING`).
"""

from __future__ import annotations

from repro.mint.analysis import is_recursive
from repro.pres import nodes as p

from repro.mir import lower
from repro.mir import ops as m
from repro.mir import render_py


def build_program(backend, presc, flags, spelling=None, stubs=None):
    """Lower the codec functions of *stubs* (every stub of *presc* when
    None) into a MirProgram, with the out-of-line helpers they reach."""
    out_of_line = lower.OutOfLineSet()
    spell = spelling or render_py.SPELLING
    program = m.MirProgram(
        interface_name=presc.interface_name,
        wire_name=backend.name,
    )
    for stub in presc.stubs if stubs is None else stubs:
        program.functions.extend(build_operation(
            backend, presc, stub, flags, out_of_line, spell))
    _drain_out_of_line(backend, presc, flags, out_of_line, program, spell)
    return program


def build_operation(backend, presc, stub, flags, out_of_line, spell):
    """Lower *stub*'s codec functions, named as :func:`codec_names`
    names them; the helpers they call are queued on *out_of_line*."""
    args = (backend, presc, stub, flags, out_of_line, spell)
    functions = [_build_request_marshal(*args),
                 _build_request_unmarshal(*args)]
    if not stub.oneway:
        functions.extend(_build_reply_marshals(*args))
        functions.append(_build_reply_unmarshal(*args))
    return functions


def codec_names(stub):
    """The names of *stub*'s codec functions, in :func:`build_operation`
    order, without lowering them."""
    op = stub.operation_name
    names = ["_m_req_" + op, "_u_req_" + op]
    if not stub.oneway:
        names.append("_m_rep_ok_" + op)
        names.extend("_m_rep_x%d_%s" % (arm.labels[0], op)
                     for arm in stub.reply_pres.arms[1:])
        names.append("_u_rep_" + op)
    return names


def _marshal_lower(backend, presc, flags, out_of_line, spell):
    low = lower.MarshalLower(
        backend.wire_format, flags, presc, out_of_line
    )
    low.staged_copies = getattr(backend, "staged_copies", False)
    low.spell = spell
    return low


def _unmarshal_lower(backend, presc, flags, out_of_line, spell,
                     zero_copy=False):
    low = lower.UnmarshalLower(
        backend.wire_format, flags, presc, out_of_line, zero_copy=zero_copy
    )
    low.spell = spell
    return low


def _size_patch(low, spec):
    if spec.size_patch is not None:
        offset, fmt_text, delta = spec.size_patch
        low.add(m.HeaderPatch(offset=offset, fmt=fmt_text, delta=delta))


def _build_request_marshal(backend, presc, stub, flags, out_of_line,
                           spell):
    spec = backend.request_header(presc, stub)
    const = "_H_req_%s" % stub.operation_name
    in_parameters = stub.in_parameters()
    # Internal argument names avoid any collision with generated locals
    # (IDL identifiers cannot begin with an underscore).
    arg_names = ["_a%d" % index for index in range(len(in_parameters))]
    low = _marshal_lower(backend, presc, flags, out_of_line, spell)
    low.add(m.PutHeader(const, spec.template, tuple(spec.patches)))
    low.reset(static_offset=len(spec.template))
    for index, parameter in enumerate(in_parameters):
        presented = presc.pres_registry.resolve(parameter.pres)
        low.emit(parameter.pres, spell.arg(
            index, parameter.name, parameter.direction,
            presc.presentation_style,
            getattr(presented, "length", None)
            or getattr(presented, "fixed_length", None)))
    low.flush()
    _size_patch(low, spec)
    return m.MirFunction(
        name="_m_req_%s" % stub.operation_name,
        kind="m_req",
        params=tuple(["b", "_ctx"] + arg_names),
        ops=low.ops,
        consts={const: spec.template},
        chunks=low.chunks_emitted,
        atoms=low.atoms_emitted,
        operation=stub.operation_name,
    )


def _build_request_unmarshal(backend, presc, stub, flags, out_of_line,
                             spell):
    low = _unmarshal_lower(backend, presc, flags, out_of_line, spell,
                           zero_copy=flags.zero_copy_server)
    low.reset(static_offset=None)
    low.static_offset = backend._request_body_offset(presc, stub)
    low.align_guarantee = backend.wire_format.universal_alignment
    exprs = [
        low.emit(parameter.pres, spell.dest_param(parameter.name))
        for parameter in stub.in_parameters()
    ]
    low.flush()
    low.add(m.Return(kind="args", exprs=tuple(exprs)))
    return m.MirFunction(
        name="_u_req_%s" % stub.operation_name,
        kind="u_req",
        params=("d", "o"),
        ops=low.ops,
        chunks=low.chunks_emitted,
        atoms=low.atoms_emitted,
        operation=stub.operation_name,
    )


def _build_reply_marshals(backend, presc, stub, flags, out_of_line, spell):
    spec = backend.reply_header(presc, stub)
    const = "_H_rep_%s" % stub.operation_name
    disc_codec = backend.wire_format.atom_codec(
        stub.reply_pres.mint.discriminator
    )
    functions = []
    # Success reply.
    success_arm = stub.reply_pres.arms[0]
    result_fields = success_arm.pres.fields
    arg_names = ["_r_%s" % f.name.lstrip("_") for f in result_fields]
    low = _marshal_lower(backend, presc, flags, out_of_line, spell)
    low.add(m.PutHeader(const, spec.template, tuple(spec.patches)))
    low.reset(static_offset=len(spec.template))
    low.add_atom(disc_codec, "0")
    for struct_field in result_fields:
        low.emit(struct_field.pres, spell.reply_value(
            struct_field.name, presc.presentation_style))
    low.flush()
    _size_patch(low, spec)
    functions.append(m.MirFunction(
        name="_m_rep_ok_%s" % stub.operation_name,
        kind="m_rep_ok",
        params=tuple(["b", "_ctx"] + arg_names),
        ops=low.ops,
        consts={const: spec.template},
        chunks=low.chunks_emitted,
        atoms=low.atoms_emitted,
        operation=stub.operation_name,
    ))
    # One marshal function per exception arm.
    for arm in stub.reply_pres.arms[1:]:
        label = arm.labels[0]
        low = _marshal_lower(backend, presc, flags, out_of_line, spell)
        low.add(m.PutHeader(const, spec.template, tuple(spec.patches)))
        low.reset(static_offset=len(spec.template))
        low.add_atom(disc_codec, str(label))
        low.emit(arm.pres, spell.exception_value(arm.pres.class_name))
        low.flush()
        _size_patch(low, spec)
        functions.append(m.MirFunction(
            name="_m_rep_x%d_%s" % (label, stub.operation_name),
            kind="m_rep_exc",
            params=("b", "_ctx", "_exc"),
            ops=low.ops,
            chunks=low.chunks_emitted,
            atoms=low.atoms_emitted,
            operation=stub.operation_name,
        ))
    return functions


def _build_reply_unmarshal(backend, presc, stub, flags, out_of_line,
                           spell):
    """Decode the reply body: return results or raise the exception."""
    low = _unmarshal_lower(backend, presc, flags, out_of_line, spell)
    low.reset(static_offset=None)
    low.static_offset = backend._reply_body_offset(presc, stub)
    low.align_guarantee = backend.wire_format.universal_alignment
    disc_codec = backend.wire_format.atom_codec(
        stub.reply_pres.mint.discriminator
    )
    disc = low.read_atom(disc_codec)
    low.flush()
    low.add(m.Bind("_d", disc))
    success_arm = stub.reply_pres.arms[0]
    low.push_body()
    low.enter_unknown()
    exprs = [
        low.emit(struct_field.pres, spell.dest_result(
            struct_field.name, presc.presentation_style))
        for struct_field in success_arm.pres.fields
    ]
    low.flush()
    # Materialize the result, then reject trailing garbage: a reply that
    # decodes but leaves bytes behind is a framing bug or an attack.
    if exprs:
        low.add(m.Bind(*spell.hold("_rv", exprs[0] if len(exprs) == 1
                                   else spell.tuple(exprs))))
    low.add(m.CheckEnd())
    low.add(m.Return(kind="plain", exprs=("_rv",) if exprs else ()))
    arms = [m.BranchArm("_d == 0", low.pop_body())]
    for arm in stub.reply_pres.arms[1:]:
        low.push_body()
        low.enter_unknown()
        value = low.emit(arm.pres, spell.dest_exception(arm.pres.class_name))
        low.flush()
        low.add(m.Bind(*spell.hold("_rx", value)))
        low.add(m.CheckEnd())
        low.add(m.Raise(value_expr="_rx"))
        arms.append(m.BranchArm("_d == %d" % arm.labels[0],
                                low.pop_body()))
    low.add(m.Branch(arms=arms))
    low.add(m.ReplyErrorTail(ops=backend.reply_error_tail_ops(presc)))
    return m.MirFunction(
        name="_u_rep_%s" % stub.operation_name,
        kind="u_rep",
        params=("d", "o"),
        ops=low.ops,
        chunks=low.chunks_emitted,
        atoms=low.atoms_emitted,
        operation=stub.operation_name,
    )


def _drain_out_of_line(backend, presc, flags, out_of_line, program, spell):
    """Lower queued out-of-line marshal/unmarshal helper functions."""
    while out_of_line.pending:
        kind, name = out_of_line.pending.pop(0)
        pres = presc.pres_registry[name]
        function = "_%s_%s" % (kind, m.mangle(name))
        list_shape = None
        if flags.iterative_lists:
            list_shape = tail_recursive_list(pres, presc, name)
        if kind == "m":
            low = _marshal_lower(backend, presc, flags, out_of_line, spell)
            low.enter_unknown()
            if list_shape is not None:
                _lower_iterative_list_marshal(low, list_shape)
            else:
                # The body must not immediately outline itself.
                low.emit(_inline_target(pres, presc), spell.helper_value)
                low.flush()
            fn = m.MirFunction(
                name=function, kind="m_helper", params=("b", "v"),
                ops=low.ops, chunks=low.chunks_emitted,
                atoms=low.atoms_emitted, type_name=name,
            )
        else:
            low = _unmarshal_lower(backend, presc, flags, out_of_line, spell)
            low.enter_unknown()
            if list_shape is not None:
                _lower_iterative_list_unmarshal(low, list_shape)
            else:
                value = low.emit_value(_inline_target(pres, presc),
                                       spell.dest_deref("v"))
                low.add(m.Return(kind="value", exprs=(value,)))
            fn = m.MirFunction(
                name=function, kind="u_helper", params=("d", "o"),
                ops=low.ops, chunks=low.chunks_emitted,
                atoms=low.atoms_emitted, type_name=name,
            )
        program.functions.append(fn)


def _lower_iterative_list_marshal(low, list_shape):
    """Marshal a self-referential list with a loop (footnote 5).

    Wire-identical to the recursive version: for each node, the leading
    fields, then the tail optional's presence word.
    """
    struct_pres, tail_name, tail_pres = list_shape
    low.push_body()
    low.enter_unknown()
    for struct_field in struct_pres.fields[:-1]:
        low.emit(struct_field.pres, "%s.%s" % (
            low.spell.helper_value, struct_field.name), named=False)
    low.flush()
    node_ops = low.pop_body()
    low.push_body()
    low.enter_unknown()
    low._emit_array_header(tail_pres.mint, "0")
    low.flush()
    stop_ops = low.pop_body()
    low.push_body()
    low.enter_unknown()
    low._emit_array_header(tail_pres.mint, "1")
    low.flush()
    next_ops = low.pop_body()
    low.add(m.ListLoop(
        kind="m", tail_name=tail_name, node_ops=node_ops,
        stop_ops=stop_ops, next_ops=next_ops,
    ))


def _lower_iterative_list_unmarshal(low, list_shape):
    """The decode twin: the first node into the helper's value, every
    later one into the node the loop has just linked on."""
    struct_pres, tail_name, tail_pres = list_shape
    record = m.mangle(struct_pres.record_name)
    spell = low.spell
    fields = struct_pres.fields[:-1]

    def fields_into(node, var):
        exprs = [
            low.emit(struct_field.pres, spell.dest_field(
                spell.dest_deref(node), struct_field.name))
            for struct_field in fields
        ]
        low.flush()
        if spell.builds_records:
            low.record_into(var, record, [f.name for f in fields], exprs)
        return exprs

    low.push_body()
    head_exprs = fields_into("v", "_node")
    head_ops = low.pop_body()
    low.push_body()
    low.enter_unknown()
    flag = low._read_array_header(tail_pres.mint)
    flag_ops = low.pop_body()
    low.push_body()
    low.enter_unknown()
    field_exprs = fields_into("_node", "_nxt")
    node_ops = low.pop_body()
    low.add(m.ListLoop(
        kind="u", tail_name=tail_name,
        node_ops=node_ops, flag_ops=flag_ops, flag_var=flag,
        field_exprs=tuple(field_exprs), head_ops=head_ops,
        head_exprs=tuple(head_exprs),
    ))


def _inline_target(pres, presc):
    if isinstance(pres, p.PresRef):
        return presc.pres_registry[pres.name]
    return pres


def tail_recursive_list(pres, presc, name):
    """Detect the classic list shape: a struct whose *last* field is an
    optional pointer back to the type itself, with no other recursion.

    Returns ``(struct_pres, tail_field_name, tail_optptr)`` or None.
    """
    target = pres
    while isinstance(target, p.PresRef):
        target = presc.pres_registry[target.name]
    if not isinstance(target, p.PresStruct) or not target.fields:
        return None
    tail = target.fields[-1]
    tail_pres = tail.pres
    if not isinstance(tail_pres, p.PresOptPtr):
        return None
    element = tail_pres.element
    if not (isinstance(element, p.PresRef) and element.name == name):
        return None
    # Leading fields must not themselves recurse, or a loop is unsound.
    for struct_field in target.fields[:-1]:
        mint = getattr(struct_field.pres, "mint", None)
        if mint is not None and is_recursive(mint, presc.mint_registry):
            return None
    return target, tail.name, tail_pres
