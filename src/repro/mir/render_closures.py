"""The closure renderer: marshal IR compiled straight to codecs.

Instead of rendering Python source and round-tripping through
``compile``/``exec``, this renderer walks the optimized IR once per
function and builds a chain of small step closures over precompiled
:class:`struct.Struct` objects.  Each step has the uniform signature
``step(b, d, o, env) -> o`` where *b* is the marshal buffer, *d* the
received bytes, *o* the read offset, and *env* the function's local
bindings.  Value expressions — already plain Python expressions by the
renderer contract (INTERNALS section 10) — are compiled once at install
time; simple identifier and integer expressions bypass ``eval``
entirely, which keeps the hot marshal path competitive with rendered
source.

The generated module provides only the scaffolding (record classes,
client proxy, dispatch): under this renderer the codec section of the
module text is never compiled.  :func:`install_closures` binds what that
section would have — header constants, the bulk-array runtime names,
the out-of-line ``_m_<T>``/``_u_<T>`` helpers — and makes the closures
the base of every codec slot (``_m_req_*``, ``_u_req_*``, ``_m_rep_*``,
``_u_rep_*``), so byte output is identical by construction: both
renderers consume the same optimized IR.
"""

from __future__ import annotations

import re
import struct

from repro.core import codecs
from repro.encoding.buffer import atom_list
from repro.errors import BackEndError, UnmarshalError
from repro.mir import ops as m

_ZEROS = b"\x00" * 64

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_LEN_OF = re.compile(r"len\(([A-Za-z_]\w*)\)\Z")

_LINEAR = re.compile(r"(\d+) \+ ([A-Za-z_]\w*)(?: \* (\d+))?\Z")

_ATTR_CHAIN = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+\Z")

_LITERALS = {"None": None, "True": True, "False": False}


class _Ret(Exception):
    """Internal non-local return carrying the function's result.

    Only unmarshal functions and list-loop helpers ever raise it; the
    hot request-marshal path has no Return ops and runs without a
    try/except.
    """

    def __init__(self, value):
        self.value = value


def install_closures(module, program):
    """Compile *program* and install its codecs over *module*."""
    if program is None:
        raise BackEndError(
            "these stubs carry no marshal IR (closure renderer "
            "requires the MIR pipeline)"
        )
    G = module.__dict__
    G["_iter_unpack"] = struct.iter_unpack
    G["_atom_list"] = atom_list
    entries = {}
    for fn in program.functions:
        G.update(fn.consts)
        compiled = _compile_function(fn, G)
        if fn.kind.endswith("_helper"):
            G[fn.name] = compiled
        else:
            entries[fn.name] = compiled
            # A scaffold-only module has no entry yet: bind it so the
            # slots (built on first use, from the names bound) find it.
            G.setdefault(fn.name, compiled)
    codecs.of(module).set_base(entries)
    G["__renderer__"] = "closures"
    return module


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


def _compile_expr(expr, G):
    """Compile one IR value expression to ``f(b, d, o, env) -> value``."""
    expr = expr.strip()
    if expr in _LITERALS:
        value = _LITERALS[expr]
        return lambda b, d, o, env, _v=value: _v
    if _IDENT.match(expr):
        def name_fn(b, d, o, env, _n=expr, _G=G):
            try:
                return env[_n]
            except KeyError:
                return _G[_n]
        return name_fn
    try:
        value = int(expr)
    except ValueError:
        pass
    else:
        return lambda b, d, o, env, _v=value: _v
    match = _LINEAR.match(expr)
    if match:
        base = int(match.group(1))
        name = match.group(2)
        scale = int(match.group(3) or 1)

        def linear_fn(b, d, o, env, _b=base, _n=name, _s=scale):
            return _b + env[_n] * _s
        return linear_fn
    match = _LEN_OF.match(expr)
    if match:
        def len_fn(b, d, o, env, _n=match.group(1), _G=G):
            try:
                return len(env[_n])
            except KeyError:
                return len(_G[_n])
        return len_fn
    if _ATTR_CHAIN.match(expr):
        head, _, rest = expr.partition(".")
        attrs = tuple(rest.split("."))

        def attr_fn(b, d, o, env, _h=head, _a=attrs, _G=G):
            try:
                value = env[_h]
            except KeyError:
                value = _G[_h]
            for name in _a:
                value = getattr(value, name)
            return value
        return attr_fn
    code = compile(expr, "<mir>", "eval")
    # Inject b/d/o into the eval scope only when the expression actually
    # names them (struct offsets and lengths on the unmarshal path do).
    needed = tuple(n for n in ("b", "d", "o") if n in code.co_names)
    if not needed:
        def const_scope_fn(b, d, o, env, _c=code, _G=G):
            return eval(_c, _G, env)
        return const_scope_fn

    def full_fn(b, d, o, env, _c=code, _G=G, _needed=needed):
        scope = locals()
        for n in _needed:
            env[n] = scope[n]
        return eval(_c, _G, env)
    return full_fn


def _compile_exprs(exprs, G):
    return [_compile_expr(e, G) for e in exprs]


def _compile_arg_tuple(entries, G):
    """Compile entry expressions to one ``f(b, d, o, env) -> tuple``.

    A multi-field chunk evaluates all its pack arguments in a single
    compiled tuple display (starred entries splice in place), so the hot
    path pays one ``eval`` per chunk rather than one per atom.
    """
    parts = [
        "*(%s)" % expr if star else "(%s)" % expr
        for expr, star in entries
    ]
    code = compile("(%s,)" % ", ".join(parts), "<mir>", "eval")
    needed = tuple(n for n in ("b", "d", "o") if n in code.co_names)
    if not needed:
        def tuple_fn(b, d, o, env, _c=code, _G=G):
            return eval(_c, _G, env)
        return tuple_fn

    def tuple_full_fn(b, d, o, env, _c=code, _G=G, _needed=needed):
        scope = locals()
        for n in _needed:
            env[n] = scope[n]
        return eval(_c, _G, env)
    return tuple_full_fn


# ----------------------------------------------------------------------
# Reservations
# ----------------------------------------------------------------------


def _compile_reserve(plan, G):
    """Compile a ReservePlan to ``f(b, d, o, env) -> base_offset``.

    Also binds ``plan.var`` (and ``plan.pad_var``) in *env*, exactly as
    the rendered source does.
    """
    size = plan.size
    size_fn = (_compile_expr(size, G)
               if not isinstance(size, int) else None)
    if plan.kind == "plain":
        def plain(b, d, o, env, _v=plan.var, _s=size, _fn=size_fn):
            at = b.reserve(_s if _fn is None else _fn(b, d, o, env))
            env[_v] = at
            return at
        return plain
    if plan.kind == "pad_base":
        def pad_base(b, d, o, env, _v=plan.var, _p=plan.pad,
                     _s=size, _fn=size_fn):
            n = _s if _fn is None else _fn(b, d, o, env)
            at = b.reserve(_p + n) + _p
            b.data[at - _p:at] = _ZEROS[:_p]
            env[_v] = at
            return at
        return pad_base
    if plan.kind == "pad_var":
        def pad_var(b, d, o, env, _v=plan.var, _pv=plan.pad_var,
                    _a=plan.align, _s=size, _fn=size_fn):
            pad = -b.length % _a
            n = _s if _fn is None else _fn(b, d, o, env)
            at = b.reserve(pad + n) + pad
            b.data[at - pad:at] = _ZEROS[:pad]
            env[_pv] = pad
            env[_v] = at
            return at
        return pad_var
    raise BackEndError("unknown reserve plan %r" % plan.kind)


# ----------------------------------------------------------------------
# Op compilers — each returns step(b, d, o, env) -> o
# ----------------------------------------------------------------------


def _c_put_header(op, G):
    size = len(op.template)
    if size == 0:
        return None
    template = bytes(op.template)
    patches = [
        (struct.Struct(fmt).pack_into, offset, _compile_expr(expr, G))
        for offset, fmt, expr in op.patches
    ]

    def step(b, d, o, env):
        at = b.reserve(size)
        b.data[at:at + size] = template
        for pack, offset, fn in patches:
            pack(b.data, at + offset, fn(b, d, o, env))
        env["_o0"] = at
        return o
    return step


def _c_header_patch(op, G):
    pack = struct.Struct(op.fmt).pack_into
    offset, delta = op.offset, op.delta

    def step(b, d, o, env):
        pack(b.data, env["_o0"] + offset, b.length - delta)
        return o
    return step


def _c_put_atoms(op, G):
    reserve = _compile_reserve(op.reserve, G)
    if op.batched:
        pack = struct.Struct(op.endian + op.fmt).pack_into
        entries = op.entries
        if len(entries) == 1 and not (entries[0].star
                                      or entries[0].count > 1):
            value_fn = _compile_expr(entries[0].expr, G)

            def single_step(b, d, o, env):
                pack(b.data, reserve(b, d, o, env),
                     value_fn(b, d, o, env))
                return o
            return single_step
        args_fn = _compile_arg_tuple(
            [(e.expr, e.star or e.count > 1) for e in entries], G
        )

        def step(b, d, o, env):
            at = reserve(b, d, o, env)
            pack(b.data, at, *args_fn(b, d, o, env))
            return o
        return step
    # Unbatched: one pack per atom with the gap folded in as pad bytes,
    # mirroring the rendered layout byte for byte.
    pieces = []
    previous_end = 0
    for entry, offset in zip(op.entries, op.offsets):
        gap = offset - previous_end
        starred = entry.star or entry.count > 1
        single = ("%d%s" % (entry.count, entry.fmt)
                  if starred else entry.fmt)
        if gap:
            single = "%dx%s" % (gap, single)
        pieces.append((
            struct.Struct(op.endian + single).pack_into,
            previous_end,
            _compile_expr(entry.expr, G),
            starred,
        ))
        previous_end = offset + entry.size * entry.count

    def step(b, d, o, env):
        at = reserve(b, d, o, env)
        for pack, rel, fn, star in pieces:
            value = fn(b, d, o, env)
            if star:
                pack(b.data, at + rel, *value)
            else:
                pack(b.data, at + rel, value)
        return o
    return step


def _c_get_atoms(op, G):
    unpack = struct.Struct(op.endian + op.fmt).unpack_from
    var, total, subscript = op.var, op.total, op.subscript

    def step(b, d, o, env):
        value = unpack(d, o)
        env[var] = value if subscript is None else value[subscript]
        return o + total
    return step


def _c_align_to(op, G):
    if op.mode == "pad":
        pad = op.pad
        return lambda b, d, o, env: o + pad
    align = op.align
    return lambda b, d, o, env: o + (-o % align)


def _c_get_array_header(op, G):
    unpack = struct.Struct(op.endian + op.fmt).unpack_from
    var, index, advance = op.var, op.index, op.advance

    def step(b, d, o, env):
        env[var] = unpack(d, o)[index]
        return o + advance
    return step


def _c_copy_run(op, G):
    reserve = _compile_reserve(op.reserve, G)
    data_fn = _compile_expr(op.data_expr, G)
    header = None
    if op.header is not None:
        fmt, args = op.header
        header = (struct.Struct(fmt).pack_into, _compile_exprs(args, G))
    if op.variant == "static":
        lead, position = op.lead_pad, op.position
        end = op.position + op.static_count
        trail = op.trail_pad

        def static_step(b, d, o, env):
            at = reserve(b, d, o, env)
            base = at + lead
            if lead:
                b.data[at:base] = _ZEROS[:lead]
            if header is not None:
                pack, arg_fns = header
                pack(b.data, base,
                     *[fn(b, d, o, env) for fn in arg_fns])
            b.data[base + position:base + end] = data_fn(b, d, o, env)
            if trail:
                b.data[base + end:base + end + trail] = _ZEROS[:trail]
            return o
        return static_step
    n_fn = _compile_expr(op.n_expr, G)
    position, end_var, nul, pad4 = (op.position, op.end_var, op.nul,
                                    op.pad_to4)

    def dynamic_step(b, d, o, env):
        at = reserve(b, d, o, env)
        if header is not None:
            pack, arg_fns = header
            pack(b.data, at, *[fn(b, d, o, env) for fn in arg_fns])
        base = at + position
        n = n_fn(b, d, o, env)
        end = base + n
        env[end_var] = end
        if nul:
            b.data[base:end - 1] = data_fn(b, d, o, env)
            b.data[end - 1] = 0
        else:
            b.data[base:end] = data_fn(b, d, o, env)
        if pad4:
            pad = -n % 4
            b.data[end:end + pad] = _ZEROS[:pad]
        return o
    return dynamic_step


def _make_struct_cache(endian, fmt):
    """Per-op cache of counted ``struct.Struct`` objects keyed by n.

    Skips both the per-call format-string build and the struct module's
    string-keyed cache lookup on repeated counts (the common case for a
    stub called in a loop).
    """
    cache = {}

    def counted(n):
        entry = cache.get(n)
        if entry is None:
            if len(cache) > 512:
                cache.clear()
            entry = cache[n] = struct.Struct(
                "%s%d%s" % (endian, n, fmt)
            )
        return entry
    return counted


def _c_put_atom_array(op, G):
    reserve = _compile_reserve(op.reserve, G)
    data_fn = _compile_expr(op.data_expr, G)
    n_fn = _compile_expr(op.n_expr, G)
    endian, fmt, size, position = op.endian, op.fmt, op.size, op.position
    counted = _make_struct_cache(endian, fmt)
    header = None
    if op.header is not None:
        hfmt, args = op.header
        header = (struct.Struct(hfmt).pack_into, _compile_exprs(args, G))
    if op.variant == "staged":
        stage_var = op.stage_var

        def staged_step(b, d, o, env):
            n = n_fn(b, d, o, env)
            stage = bytearray(n * size)
            counted(n).pack_into(stage, 0, *data_fn(b, d, o, env))
            env[stage_var] = stage
            at = reserve(b, d, o, env)
            if header is not None:
                pack, arg_fns = header
                pack(b.data, at, *[fn(b, d, o, env) for fn in arg_fns])
            base = at + position
            b.data[base:base + n * size] = stage
            return o
        return staged_step
    split_reserve = (None if op.variant != "split"
                     else _compile_reserve(op.split_reserve, G))

    def step(b, d, o, env):
        at = reserve(b, d, o, env)
        if header is not None:
            pack, arg_fns = header
            pack(b.data, at, *[fn(b, d, o, env) for fn in arg_fns])
        if split_reserve is not None:
            at = split_reserve(b, d, o, env)
        else:
            at = at + position
        n = n_fn(b, d, o, env)
        counted(n).pack_into(b.data, at, *data_fn(b, d, o, env))
        return o
    return step


def _c_get_atom_array(op, G):
    count_fn = _compile_expr(op.count_expr, G)
    endian, fmt, size = op.endian, op.fmt, op.size
    var, conversion = op.var, op.conversion
    if conversion in ("int", "float"):
        def array_step(b, d, o, env):
            n = count_fn(b, d, o, env)
            env[var] = atom_list(endian, fmt, d, o, n)
            return o + n * size
        return array_step
    convert = chr if conversion == "char" else bool
    counted = _make_struct_cache(endian, fmt)

    def step(b, d, o, env):
        n = count_fn(b, d, o, env)
        env[var] = [convert(c) for c in counted(n).unpack_from(d, o)]
        return o + n * size
    return step


def _c_put_array_region(op, G):
    reserve = _compile_reserve(op.reserve, G)
    fmt_fn = _compile_expr(op.format_expr(), G)
    leaves_fn = _compile_expr(op.leaves_expr(), G)

    def step(b, d, o, env):
        at = reserve(b, d, o, env)
        struct.pack_into(fmt_fn(b, d, o, env), b.data, at,
                         *leaves_fn(b, d, o, env))
        return o
    return step


def _c_get_array_region(op, G):
    count_fn = _compile_expr(op.count_expr, G)
    iter_unpack = struct.Struct(op.endian + op.fmt).iter_unpack
    build = eval(compile(
        "lambda _it_: [%s for %s in _it_]" % (op.element_expr, op.tuple_var),
        "<mir>", "eval",
    ), G)
    var, stride = op.var, op.stride

    def step(b, d, o, env):
        end = o + count_fn(b, d, o, env) * stride
        env[var] = build(iter_unpack(memoryview(d)[o:end]))
        return end
    return step


def _c_get_run(op, G):
    count_fn = _compile_expr(op.count_expr, G)
    var, kind, nul, mode, pad4 = (op.var, op.kind, op.nul, op.mode,
                                  op.pad_to4)

    def step(b, d, o, env):
        n = count_fn(b, d, o, env)
        if kind == "string":
            end = o + n - 1 if nul else o + n
            if mode == "raw":
                env[var] = bytes(d[o:end])
            elif mode == "slow":
                env[var] = "".join(map(chr, d[o:end]))
            else:
                env[var] = bytes(d[o:end]).decode("latin-1")
        elif mode == "view":
            env[var] = d[o:o + n]
        else:
            env[var] = bytes(d[o:o + n])
        return o + n + (-n % 4) if pad4 else o + n
    return step


def _c_check_remaining(op, G):
    size_fn = _compile_expr(op.size_expr, G)

    def step(b, d, o, env):
        if o + size_fn(b, d, o, env) > len(d):
            raise UnmarshalError("message truncated")
        return o
    return step


def _c_reserve_one(op, G):
    var = op.var

    def step(b, d, o, env):
        env[var] = b.reserve(1)
        return o
    return step


def _c_store_byte(op, G):
    offset_fn = _compile_expr(op.offset_var, G)
    value_fn = _compile_expr(op.value_expr, G)

    def step(b, d, o, env):
        b.data[offset_fn(b, d, o, env)] = value_fn(b, d, o, env)
        return o
    return step


def _c_pad_to_four(op, G):
    pad_var, offset_var = op.pad_var, op.offset_var

    def step(b, d, o, env):
        pad = -b.length % 4
        at = b.reserve(pad)
        b.data[at:at + pad] = _ZEROS[:pad]
        env[pad_var] = pad
        env[offset_var] = at
        return o
    return step


def _c_bounds_check(op, G):
    cond_fn = _compile_expr(op.cond, G)
    error = G[op.error]
    message = op.message

    def step(b, d, o, env):
        if cond_fn(b, d, o, env):
            raise error(message)
        return o
    return step


def _c_bind(op, G):
    value_fn = _compile_expr(op.expr, G)
    if ", " in op.var:
        names = tuple(op.var.split(", "))

        def unpack_step(b, d, o, env):
            values = value_fn(b, d, o, env)
            for name, value in zip(names, values):
                env[name] = value
            return o
        return unpack_step
    var = op.var

    def step(b, d, o, env):
        env[var] = value_fn(b, d, o, env)
        return o
    return step


def _c_expr_stmt(op, G):
    fn = _compile_expr(op.expr, G)

    def step(b, d, o, env):
        fn(b, d, o, env)
        return o
    return step


def _c_call_out_of_line(op, G):
    name = op.function
    if op.kind == "m":
        arg_fn = _compile_expr(op.arg_expr, G)

        def m_step(b, d, o, env):
            G[name](b, arg_fn(b, d, o, env))
            return o
        return m_step
    var = op.var

    def u_step(b, d, o, env):
        env[var], o = G[name](d, o)
        return o
    return u_step


def _c_loop(op, G):
    body = _compile_ops(op.body, G)
    if op.kind == "range":
        count_fn = _compile_expr(op.count_expr, G)

        def range_step(b, d, o, env):
            for _ in range(count_fn(b, d, o, env)):
                o = _run(body, b, d, o, env)
            return o
        return range_step
    iter_fn = _compile_expr(op.iterable, G)
    var = op.var

    def step(b, d, o, env):
        for item in iter_fn(b, d, o, env):
            env[var] = item
            o = _run(body, b, d, o, env)
        return o
    return step


def _c_list_loop(op, G):
    tail_name = op.tail_name
    if op.kind == "m":
        node = _compile_ops(op.node_ops, G)
        stop = _compile_ops(op.stop_ops, G)
        nxt = _compile_ops(op.next_ops, G)

        def m_step(b, d, o, env):
            while 1:
                o = _run(node, b, d, o, env)
                tail = getattr(env["v"], tail_name)
                env["_nx"] = tail
                if tail is None:
                    o = _run(stop, b, d, o, env)
                    raise _Ret(None)
                o = _run(nxt, b, d, o, env)
                env["v"] = tail
        return m_step
    record = G[op.record]
    head = _compile_ops(op.head_ops, G)
    head_fns = _compile_exprs(op.head_exprs, G)
    flag_ops = _compile_ops(op.flag_ops, G)
    node = _compile_ops(op.node_ops, G)
    field_fns = _compile_exprs(op.field_exprs, G)
    flag_var = op.flag_var

    def u_step(b, d, o, env):
        o = _run(head, b, d, o, env)
        args = [fn(b, d, o, env) for fn in head_fns]
        args.append(None)
        current = record(*args)
        first = current
        while 1:
            o = _run(flag_ops, b, d, o, env)
            flag = env[flag_var]
            if flag == 0:
                raise _Ret((first, o))
            if flag != 1:
                raise UnmarshalError("bad optional count")
            o = _run(node, b, d, o, env)
            args = [fn(b, d, o, env) for fn in field_fns]
            args.append(None)
            nxt = record(*args)
            setattr(current, tail_name, nxt)
            current = nxt
    return u_step


def _c_branch(op, G):
    arms = [
        (None if arm.cond is None else _compile_expr(arm.cond, G),
         _compile_ops(arm.body, G))
        for arm in op.arms
    ]

    def step(b, d, o, env):
        for cond_fn, body in arms:
            if cond_fn is None or cond_fn(b, d, o, env):
                return _run(body, b, d, o, env)
        return o
    return step


def _c_raise(op, G):
    if op.value_expr:
        value_fn = _compile_expr(op.value_expr, G)

        def value_step(b, d, o, env):
            raise value_fn(b, d, o, env)
        return value_step
    error = G[op.error]
    if op.literal:
        message = op.message_expr

        def literal_step(b, d, o, env):
            raise error(message)
        return literal_step
    message_fn = _compile_expr(op.message_expr, G)

    def step(b, d, o, env):
        raise error(message_fn(b, d, o, env))
    return step


def _c_check_end(op, G):
    def step(b, d, o, env):
        G["_chk_end"](d, o)
        return o
    return step


def _c_return(op, G):
    if op.kind == "args":
        fns = _compile_exprs(op.exprs, G)

        def args_step(b, d, o, env):
            raise _Ret((tuple(fn(b, d, o, env) for fn in fns), o))
        return args_step
    if op.kind == "value":
        value_fn = _compile_expr(op.exprs[0], G)

        def value_step(b, d, o, env):
            raise _Ret((value_fn(b, d, o, env), o))
        return value_step
    if op.kind == "plain":
        if op.exprs:
            value_fn = _compile_expr(op.exprs[0], G)

            def plain_step(b, d, o, env):
                raise _Ret(value_fn(b, d, o, env))
            return plain_step

        def none_step(b, d, o, env):
            raise _Ret(None)
        return none_step

    def bare_step(b, d, o, env):
        raise _Ret(None)
    return bare_step


_COMPILERS = {
    m.PutHeader: _c_put_header,
    m.HeaderPatch: _c_header_patch,
    m.PutAtoms: _c_put_atoms,
    m.GetAtoms: _c_get_atoms,
    m.AlignTo: _c_align_to,
    m.GetArrayHeader: _c_get_array_header,
    m.CopyRun: _c_copy_run,
    m.PutAtomArray: _c_put_atom_array,
    m.GetAtomArray: _c_get_atom_array,
    m.PutArrayRegion: _c_put_array_region,
    m.GetArrayRegion: _c_get_array_region,
    m.GetRun: _c_get_run,
    m.CheckRemaining: _c_check_remaining,
    m.ReserveOne: _c_reserve_one,
    m.StoreByte: _c_store_byte,
    m.PadToFour: _c_pad_to_four,
    m.BoundsCheck: _c_bounds_check,
    m.Bind: _c_bind,
    m.ExprStmt: _c_expr_stmt,
    m.CallOutOfLine: _c_call_out_of_line,
    m.Loop: _c_loop,
    m.ListLoop: _c_list_loop,
    m.Branch: _c_branch,
    m.Raise: _c_raise,
    m.CheckEnd: _c_check_end,
    m.Return: _c_return,
}


def _compile_ops(ops, G):
    steps = []
    for op in ops:
        if isinstance(op, m.ReplyErrorTail):
            steps.extend(_compile_ops(op.ops, G))
            continue
        step = _COMPILERS[type(op)](op, G)
        if step is not None:
            steps.append(step)
    return steps


def _run(steps, b, d, o, env):
    for step in steps:
        o = step(b, d, o, env)
    return o


# ----------------------------------------------------------------------
# Function drivers
# ----------------------------------------------------------------------


def _compile_function(fn, G):
    steps = _compile_ops(fn.ops, G)
    can_return = any(
        isinstance(op, (m.Return, m.ListLoop))
        for op in m.walk_ops(fn.ops)
    )
    if fn.params and fn.params[0] == "b":
        names = fn.params[1:]
        if can_return:
            def m_driver(b, *args):
                env = dict(zip(names, args))
                o = 0
                try:
                    for step in steps:
                        o = step(b, None, o, env)
                except _Ret as ret:
                    return ret.value
                return None
            driver = m_driver
        else:
            # The hot path: request/reply marshal bodies never return a
            # value, so no exception machinery is set up at all.
            def m_driver_hot(b, *args):
                env = dict(zip(names, args))
                o = 0
                for step in steps:
                    o = step(b, None, o, env)
                return None
            driver = m_driver_hot
    else:
        def u_driver(d, o):
            env = {}
            try:
                for step in steps:
                    o = step(None, d, o, env)
            except _Ret as ret:
                return ret.value
            return None
        driver = u_driver
    driver.__name__ = fn.name
    driver.__qualname__ = fn.name
    driver.__mir_kind__ = fn.kind
    return driver
