"""Lowering: PRES_C -> marshal IR op sequences.

:class:`MarshalLower` and :class:`UnmarshalLower` walk a PRES tree once
and append typed ops (:mod:`repro.mir.ops`) to the current function body.
They carry the same static-layout state machine the text emitters used to
run — absolute offset tracking, alignment guarantees, chunk admission —
so the op sequence already encodes the section-3 optimizations selected
by the pass configuration:

* ``chunk_atoms`` + ``batch_buffer_checks`` — atom runs coalesce into one
  :class:`~repro.mir.ops.PutAtoms`/:class:`~repro.mir.ops.GetAtoms` with
  a multi-field format and one reserve (chunk coalescing + free-space
  check hoisting).  Off: one op (and one reserve) per atom.
* ``memcpy_arrays`` — byte runs become :class:`~repro.mir.ops.CopyRun`,
  atomic arrays become :class:`~repro.mir.ops.PutAtomArray` /
  :class:`~repro.mir.ops.GetAtomArray`.  Off: element loops and per-byte
  copy loops (the naive shape, still expressed as IR ``Loop`` ops).
* ``inline_marshal`` — aggregate code is expanded in place; only
  recursive types produce :class:`~repro.mir.ops.CallOutOfLine`.

Value positions are text in the target language, and the lowering never
writes any: every spelling — how a parameter, a field, an element, a
length or a decoded record reads — comes from the spelling table the
program is built with (``self.spell``; the Python one lives beside
:mod:`repro.mir.render_py`, the C one beside :mod:`repro.mir.render_c`).
The decisions above depend only on the presentation and the layout, so
both tables yield the same ops with the same offsets, formats and plans.
On the decode side the C table also needs to know where a value goes:
each ``emit`` takes the *dest* it is stored to (an lvalue; the Python
table builds values instead and spells every dest as ``""``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import BackEndError
from repro.mint.analysis import StorageClass, analyze_storage, is_recursive
from repro.mint.types import MintInteger

from repro.mir import ops as m
from repro.pres import nodes as p

UNROLL_LIMIT = m.UNROLL_LIMIT

#: No atom of any wire format aligns beyond this.
MAX_ALIGNMENT = 8


class _Var(str):
    """A decoded value the lowering left in a variable (or stored in
    place): :meth:`UnmarshalLower.emit_value` binds nothing for it."""


class NamePool:
    """Per-function temporary names; numbering starts at 1 so generated
    temps never collide with the reserved header offset ``_o0``.  Built
    records are numbered apart (``_r1``, ``_r2``...), so building one
    renames no other temporary."""

    def __init__(self):
        self._counter = 0
        self._records = 0

    def temp(self, prefix="_t"):
        self._counter += 1
        return "%s%d" % (prefix, self._counter)

    def record(self):
        self._records += 1
        return "_r%d" % self._records

    def mark(self):
        return self._counter, self._records

    def rewind(self, mark):
        """Give back every name handed out since :meth:`mark`."""
        self._counter, self._records = mark


class OutOfLineSet:
    """Bookkeeping shared by every function lowered for one program:
    the out-of-line helper functions, and element storage analyses.

    Helpers are queued when first referenced and lowered by the program
    builder after the main stubs; recursion terminates because the queue
    records names before bodies are built.
    """

    def __init__(self):
        self.marshal_done = set()
        self.unmarshal_done = set()
        self.pending = []  # (kind, name)
        #: Element MINT -> StorageInfo: each array is lowered in up to
        #: four functions of the program, its element analysed once.
        self.element_storage = {}

    def request(self, kind, name):
        done = self.marshal_done if kind == "m" else self.unmarshal_done
        if name not in done:
            done.add(name)
            self.pending.append((kind, name))
        return "_%s_%s" % (kind, m.mangle(name))


class _LowerBase:
    """State shared by the marshal and unmarshal lowerers."""

    #: The target's spelling table (set by :func:`repro.mir.build.
    #: build_program`).
    spell = None

    def __init__(self, wire_format, flags, presc, out_of_line,
                 names=None):
        self.fmt = wire_format
        self.flags = flags
        self.presc = presc
        self.pres_registry = presc.pres_registry
        self.mint_registry = presc.mint_registry
        self.out_of_line = out_of_line
        self.names = names or NamePool()
        self.chunk: List[m.AtomEntry] = []
        self.static_offset: Optional[int] = 0
        self.align_guarantee = 8
        # Alignment the current chunk's base will be given (dynamic case);
        # atoms needing more start a new chunk, keeping chunk layout equal
        # to the true per-atom wire layout.
        self._chunk_base_align = 1
        self.chunks_emitted = 0
        self.atoms_emitted = 0
        # Structured bodies: ops append to the innermost open body.
        self._stack = [[]]
        # Loops open around the op being lowered; a loop's index is
        # named after its depth, the way the C printer names it.
        self.depth = 0

    # -- op plumbing ----------------------------------------------------

    @property
    def ops(self):
        return self._stack[0]

    def add(self, op):
        self._stack[-1].append(op)
        return op

    def push_body(self):
        body = []
        self._stack.append(body)
        return body

    def pop_body(self):
        return self._stack.pop()

    def temp(self, prefix="_t"):
        return self.names.temp(prefix)

    def index(self):
        """The index of the loop lowered next (at ``depth + 1``)."""
        return "_i%d" % (self.depth + 1)

    # -- layout state (identical to the former text emitters) -----------

    def _admit_atom(self, codec):
        """Chunk-splitting rule before queueing an atom (dynamic base)."""
        if self.static_offset is not None:
            return
        if not self.chunk:
            self._chunk_base_align = max(
                codec.alignment, self.align_guarantee
            )
        elif codec.alignment > self._chunk_base_align:
            self.flush()
            self._chunk_base_align = max(
                codec.alignment, self.align_guarantee
            )

    def reset(self, static_offset=0):
        """Start a new message at a known absolute offset."""
        self.chunk = []
        self.static_offset = static_offset
        self.align_guarantee = 8

    def enter_unknown(self):
        """Enter a region of unknown offset (loop body, branch join)."""
        self.static_offset = None
        self.align_guarantee = self.fmt.universal_alignment

    def _advance(self, size):
        """Track offset knowledge across *size* emitted bytes."""
        if self.static_offset is not None:
            self.static_offset += size
        else:
            self.align_guarantee = m.largest_pow2_divisor(
                size, self.align_guarantee
            )

    def _layout(self, entries, start):
        return layout_entries(entries, start)

    def resolve(self, pres):
        if isinstance(pres, p.PresRef):
            return self.pres_registry[pres.name]
        return pres

    # -- array regions (section 3.1) -------------------------------------

    def element_storage(self, element_pres):
        """The storage class and size bounds of one array element."""
        memo = self.out_of_line.element_storage
        mint = element_pres.mint
        if mint not in memo:
            memo[mint] = analyze_storage(mint, self.fmt, self.mint_registry)
        return memo[mint]

    def region_enabled(self):
        """An array region is what the three chunking passes promise
        together; with any of them off, element arrays stay loops."""
        flags = self.flags
        return (flags.chunk_atoms and flags.batch_buffer_checks
                and flags.memcpy_arrays)

    def region_element(self, emit_element, chunk_type, prefix=(),
                       suffix=()):
        """Lower one array element with its base assumed aligned for any
        atom, to learn whether the whole array can be one region.

        Returns ``(emit_element's result, body, base alignment)`` when
        the element is a single *chunk_type* chunk (between *prefix* ops
        and *suffix* ops only) that repeats at a padding-free stride
        from a base this wire format would align the same way.
        Otherwise returns None with names and counters rewound, so the
        loop lowered instead is exactly what it would have been.
        Appends nothing either way.
        """
        self.flush()
        rewind = (self.names.mark(), self.chunks_emitted,
                  self.atoms_emitted)
        layout = (self.static_offset, self.align_guarantee)
        self.push_body()
        self.static_offset, self.align_guarantee = None, MAX_ALIGNMENT
        result = emit_element()
        self.flush()
        body = self.pop_body()
        self.static_offset, self.align_guarantee = layout
        at = next((index for index, op in enumerate(body)
                   if not isinstance(op, prefix)), len(body))
        chunk = body[at] if at < len(body) else None
        if (isinstance(chunk, chunk_type)
                and all(isinstance(op, suffix) for op in body[at + 1:])):
            align = max(entry.align for entry in chunk.entries)
            # Members are aligned one by one, never the element as a
            # whole: padding the base to *align* is only what the wire
            # format does itself when the first member needs it.
            if chunk.total % align == 0 and (
                    self._aligned_to(align)
                    or chunk.entries[0].align == align):
                return result, body, align
        self.names.rewind(rewind[0])
        self.chunks_emitted, self.atoms_emitted = rewind[1:]
        return None

    def _aligned_to(self, align):
        if self.static_offset is not None:
            return self.static_offset % align == 0
        return self.align_guarantee >= align

    def should_outline(self, pres_ref):
        """Out-of-line marshaling for recursive types, or for every named
        type when the inlining pass is disabled."""
        if not self.flags.inline_marshal:
            return True
        return is_recursive(pres_ref.mint, self.mint_registry)

    def entry(self, codec, count=1, expr="", out_index=0, star=False):
        # Positional: this runs once per atom of every lowered function.
        return m.AtomEntry(codec.format, codec.size, codec.alignment,
                           count, star, expr, out_index)

    # -- conversions ----------------------------------------------------

    def unpack_expr(self, codec, expr):
        if codec.conversion in ("char", "bool"):
            return str(self.spell.unpack(codec.conversion, expr))
        return expr


class MarshalLower(_LowerBase):
    """Lowers marshal code: ops writing into buffer ``b``."""

    #: Set by the Mach typed-message (MIG) back end: array data stages
    #: through a temporary before entering the message (Figure 7's extra
    #: copy pass).
    staged_copies = False

    # ------------------------------------------------------------------
    # Chunk machinery
    # ------------------------------------------------------------------

    def add_atom(self, codec, expr, count=1):
        self._admit_atom(codec)
        if codec.conversion in ("char", "bool"):
            expr = self.spell.pack(codec.conversion, expr)
        self.chunk.append(self.entry(codec, count, expr))
        if not self.flags.chunk_atoms or not self.flags.batch_buffer_checks:
            self.flush()

    def flush(self):
        if not self.chunk:
            return
        entries, self.chunk = self.chunk, []
        self.chunks_emitted += 1
        self.atoms_emitted += sum(entry.count for entry in entries)
        start = self.static_offset
        if start is not None:
            fmt, total, offsets = self._layout(entries, start)
            plan = m.ReservePlan("plain", self.temp("_o"), total)
        else:
            base_align = self._chunk_base_align
            fmt, total, offsets = self._layout(entries, 0)
            plan = self._reserve_dynamic_base(total, base_align)
        batched = (
            self.flags.chunk_atoms and self.flags.batch_buffer_checks
        )
        self.add(m.PutAtoms(
            endian=self.fmt.endian, fmt=fmt, total=total,
            offsets=tuple(offsets), entries=tuple(entries),
            reserve=plan, batched=batched, start=start,
        ))
        self._advance(total)

    def _reserve_dynamic_base(self, total, base_align):
        """Reserve *total* bytes with the chunk base aligned dynamically."""
        var = self.temp("_o")
        if self.align_guarantee >= base_align:
            return m.ReservePlan("plain", var, total)
        plan = m.ReservePlan(
            "pad_var", var, total, pad_var=self.temp("_p"),
            align=base_align,
        )
        self.align_guarantee = base_align
        return plan

    def _reserve(self, size, align):
        """Reserve *size* bytes aligned to *align*.

        Returns ``(static_pad, plan)``: the statically-known leading
        padding folded into the reservation, and the reserve plan.
        """
        if self.static_offset is not None:
            pad = -self.static_offset % align
            return pad, m.ReservePlan("plain", self.temp("_o"), pad + size)
        if self.align_guarantee >= align:
            return 0, m.ReservePlan("plain", self.temp("_o"), size)
        pad_var = self.temp("_p")
        plan = m.ReservePlan(
            "pad_var", self.temp("_o"), size, pad_var=pad_var, align=align
        )
        # Offset is now aligned; subsequent knowledge is modular only.
        self.align_guarantee = align
        return 0, plan

    def reserve_dynamic(self, size_expr, align, var=None):
        """Plan a runtime-sized reservation; *size_expr* must evaluate to
        the exact byte count including any trailing padding."""
        var = var or self.temp("_o")
        if self.static_offset is not None:
            pad = -self.static_offset % align
            if pad:
                plan = m.ReservePlan("pad_base", var, size_expr, pad=pad)
            else:
                plan = m.ReservePlan("plain", var, size_expr)
            self.static_offset = None
            self.align_guarantee = align
            return plan
        if self.align_guarantee >= align:
            return m.ReservePlan("plain", var, size_expr)
        plan = m.ReservePlan(
            "pad_var", var, size_expr, pad_var=self.temp("_p"), align=align
        )
        self.align_guarantee = align
        return plan

    # ------------------------------------------------------------------
    # PRES dispatch
    # ------------------------------------------------------------------

    def emit(self, pres, expr, named=True):
        """Lower marshal ops for *pres* reading the presented value from
        the expression *expr*; *named* is False when *expr* is a field
        path rather than a parameter, temporary or element."""
        handler = self._EMIT.get(type(pres))
        if handler is None:
            raise BackEndError(
                "cannot marshal PRES node %r" % type(pres).__name__
            )
        handler(self, pres, expr, named)

    def _emit_atom(self, pres, expr, named=True):
        self.add_atom(self.fmt.atom_codec(pres.mint), expr)

    def _emit_ref(self, pres, expr, named):
        if self.should_outline(pres):
            function = self.out_of_line.request("m", pres.name)
            self.flush()
            self.add(m.CallOutOfLine(
                kind="m", name=pres.name, function=function, arg_expr=expr,
            ))
            self.enter_unknown()
        else:
            self.emit(self.resolve(pres), expr, named)

    def _emit_fields(self, pres, expr, named):
        """A struct's or an exception's members, in order."""
        if len(pres.fields) > 1 and not named:
            # Hoist the base object: the analog of the paper's chunk
            # pointer (one base, constant "offsets" = member names).
            base = self.temp("_s")
            self.add(m.Bind(base, expr))
            expr = base
        for struct_field in pres.fields:
            self.emit(struct_field.pres,
                      "%s.%s" % (expr, struct_field.name), named=False)

    # -- arrays ---------------------------------------------------------

    def _header_entries(self, mint_array, count_expr):
        """Chunk entries encoding the array header (length/descriptor)."""
        header = self.fmt.array_header_size(mint_array)
        if header == 0:
            return []
        u32 = self.fmt.atom_codec(MintInteger(32, False))
        if header == 4:
            return [self.entry(u32, 1, count_expr)]
        if header == 8:
            element = self.mint_registry.resolve(mint_array.element)
            from repro.mint.types import is_atom

            descriptor_atom = (
                element if is_atom(element) else MintInteger(8, False)
            )
            word = self.fmt.descriptor_word(descriptor_atom)
            return [
                self.entry(u32, 1, str(word)),
                self.entry(u32, 1, count_expr),
            ]
        raise BackEndError("unsupported array header size %d" % header)

    def _emit_array_header(self, mint_array, count_expr):
        for entry in self._header_entries(mint_array, count_expr):
            self._admit_atom(_entry_codec(entry))
            self.chunk.append(entry)
            if not self.flags.chunk_atoms or not self.flags.batch_buffer_checks:
                self.flush()

    def _emit_string(self, pres, expr, named=True):
        self.flush()
        data = self.temp("_s")
        # The length-carrying presentation (paper section 2.2) hands
        # over encoded bytes: no count, no encode.
        self.add(m.Bind(data, self.spell.text_bytes(
            expr, pres.carries_length)))
        length = self.spell.length(data, "text")
        if pres.bound is not None:
            self.add(m.BoundsCheck(
                "%s > %d" % (length, pres.bound), "MarshalError",
                "string exceeds bound %d" % pres.bound,
            ))
        n = self.temp("_n")
        nul = 1 if self.fmt.string_nul_terminated else 0
        self.add(m.Bind(n, length + (" + 1" if nul else "")))
        self._emit_byte_run(pres.mint, data, n, nul=nul)

    def _emit_bytes(self, pres, expr, named=True):
        self.flush()
        if pres.fixed_length is not None:
            self.add(m.BoundsCheck(
                "%s != %d" % (self.spell.length(
                    expr, "array", pres.fixed_length), pres.fixed_length),
                "MarshalError",
                "opaque must be exactly %d bytes" % pres.fixed_length,
            ))
            self._emit_byte_run(
                pres.mint, expr, str(pres.fixed_length),
                static_count=pres.fixed_length,
            )
            return
        length = self.spell.length(expr, "seq")
        if pres.bound is not None:
            self.add(m.BoundsCheck(
                "%s > %d" % (length, pres.bound), "MarshalError",
                "opaque exceeds bound %d" % pres.bound,
            ))
        n = self.temp("_n")
        self.add(m.Bind(n, length))
        self._emit_byte_run(pres.mint, self.spell.elements(expr, True), n)

    def _emit_byte_run(self, mint_array, data_expr, n_expr, nul=0,
                       static_count=None):
        """One slice-assignment bulk copy of a byte-grained array —
        the memcpy optimization.  Handles header, data, NUL, padding."""
        if not self.flags.memcpy_arrays:
            self._emit_byte_run_slow(mint_array, data_expr, n_expr, nul)
            return
        if self.staged_copies:
            # MIG typed-message staging: byte data passes through a copy.
            stage = self.temp("_stage")
            self.add(m.Bind(stage, self.spell.stage(data_expr)))
            data_expr = stage
        header = self.fmt.array_header_size(mint_array)
        pad_to4 = self.fmt.pads_byte_runs(mint_array)
        header_align = self.fmt.array_header_alignment(mint_array)
        header_pack = self._header_pack(mint_array, n_expr)
        if static_count is not None and not nul:
            total = header + static_count
            trail = -static_count % 4 if pad_to4 else 0
            total += trail
            # A headerless run (a fixed opaque outside Mach) is bytes:
            # nothing to align, and the decoder aligns nothing.
            pad0, plan = self._reserve(total, header_align if header else 1)
            self.add(m.CopyRun(
                variant="static", reserve=plan, data_expr=data_expr,
                header=header_pack, position=header, lead_pad=pad0,
                static_count=static_count, n_expr=n_expr,
                pad_to4=pad_to4, trail_pad=trail,
            ))
            self._advance(pad0 + total)
            return
        # Runtime-sized run.
        size_expr = "%d + %s" % (header, n_expr) if header else n_expr
        if pad_to4:
            size_expr = "%s + (-%s %% 4)" % (size_expr, n_expr)
        plan = self.reserve_dynamic(size_expr, max(header_align, 1))
        self.add(m.CopyRun(
            variant="dynamic", reserve=plan, data_expr=data_expr,
            header=header_pack, position=header, n_expr=n_expr,
            end_var=self.temp("_e"), nul=nul, pad_to4=pad_to4,
        ))
        self.static_offset = None
        self.align_guarantee = max(
            4 if pad_to4 else 1, self.fmt.universal_alignment
        )

    def _header_pack(self, mint_array, n_expr):
        """The array header as a ``(fmt, args)`` pack, or None."""
        entries = self._header_entries(mint_array, n_expr)
        if not entries:
            return None
        fmt = self.fmt.endian + "I" * len(entries)
        return fmt, tuple(entry.expr for entry in entries)

    def _emit_byte_run_slow(self, mint_array, data_expr, n_expr, nul):
        """Byte-at-a-time marshaling (memcpy pass disabled).

        Wire layout is identical to the bulk-copy path — one byte per
        element — but each byte performs its own buffer check and store,
        the way naive per-datum marshal functions behave.  The loop is an
        IR ``Loop`` op, not a renderer-private code path.
        """
        self._emit_array_header(mint_array, n_expr)
        self.flush()
        element = self.temp("_c")
        self.push_body()
        offset = self.temp("_o")
        self.add(m.ReserveOne(offset))
        self.add(m.StoreByte(offset, self.spell.element(
            data_expr, self.index(), element)))
        body = self.pop_body()
        self.add(m.Loop(
            kind="bytes", body=body, var=element, iterable=data_expr,
            count_expr="%s - %d" % (n_expr, nul) if nul else n_expr,
        ))
        if nul:
            offset = self.temp("_o")
            self.add(m.ReserveOne(offset))
            self.add(m.StoreByte(offset, "0"))
        if self.fmt.pads_byte_runs(mint_array):
            self.add(m.PadToFour(self.temp("_p"), self.temp("_o")))
        self.enter_unknown()

    def _atom_element_codec(self, element_pres):
        """The codec for an atomic element presentation, else None."""
        element = self.resolve(element_pres)
        if isinstance(element, (p.PresDirect, p.PresEnum)):
            return self.fmt.atom_codec(element.mint)
        return None

    def _emit_fixed_array(self, pres, expr, named=True):
        self.add(m.BoundsCheck(
            "%s != %d" % (self.spell.length(expr, "array", pres.length),
                          pres.length), "MarshalError",
            "fixed array needs %d elements" % pres.length,
        ))
        codec = self._atom_element_codec(pres.element)
        header = self.fmt.array_header_size(pres.mint)
        if codec is not None and self.flags.memcpy_arrays:
            # Statically-sized atomic array: join the current chunk as one
            # star entry (a single batched pack).
            self._emit_array_header(pres.mint, str(pres.length))
            self._admit_atom(codec)
            self.chunk.append(self.entry(
                codec, pres.length,
                self.spell.atoms(expr, codec.conversion, counted=False),
                star=True,
            ))
            if not self.flags.chunk_atoms or not self.flags.batch_buffer_checks:
                self.flush()
            return
        if codec is not None and pres.length <= UNROLL_LIMIT and header == 0:
            for index in range(pres.length):
                self.add_atom(codec, "%s[%d]" % (expr, index))
            return
        self._emit_array_header(pres.mint, str(pres.length))
        self._emit_elements(pres.element, self.spell.elements(expr, False),
                            str(pres.length), fixed=True)

    def _emit_counted_array(self, pres, expr, named=True):
        self.flush()
        n = self.temp("_n")
        self.add(m.Bind(n, self.spell.length(expr, "seq")))
        if pres.bound is not None:
            self.add(m.BoundsCheck(
                "%s > %d" % (n, pres.bound), "MarshalError",
                "array exceeds bound %d" % pres.bound,
            ))
        codec = self._atom_element_codec(pres.element)
        if codec is not None and self.flags.memcpy_arrays:
            self._emit_batched_array(pres.mint, codec, expr, n)
            return
        self._emit_array_header(pres.mint, n)
        self._emit_elements(pres.element, self.spell.elements(expr, True),
                            n, fixed=False)

    def _emit_batched_array(self, mint_array, codec, expr, n_expr):
        """Variable atomic array as one header + one array-wide pack."""
        header = self.fmt.array_header_size(mint_array)
        header_align = self.fmt.array_header_alignment(mint_array)
        expr = self.spell.atoms(expr, codec.conversion, counted=True)
        header_pack = self._header_pack(mint_array, n_expr)
        if self.staged_copies:
            # MIG typed-message staging: pack into a staging buffer, then
            # copy it into the message after the header (the extra pass
            # Flick's marshal-buffer management avoids; Figure 7).
            stage = self.temp("_stage")
            size_expr = "%d + %s * %d" % (header, n_expr, codec.size)
            plan = self.reserve_dynamic(size_expr, max(header_align, 1))
            self.add(m.PutAtomArray(
                variant="staged", endian=self.fmt.endian, fmt=codec.format,
                size=codec.size, n_expr=n_expr, data_expr=expr,
                reserve=plan, header=header_pack, position=header,
                stage_var=stage,
            ))
            self.static_offset = None
            self.align_guarantee = self.fmt.universal_alignment
            return
        if codec.alignment <= header_align or header == 0:
            size_expr = "%d + %s * %d" % (header, n_expr, codec.size)
            plan = self.reserve_dynamic(
                size_expr, max(header_align, codec.alignment)
            )
            self.add(m.PutAtomArray(
                variant="joint", endian=self.fmt.endian, fmt=codec.format,
                size=codec.size, n_expr=n_expr, data_expr=expr,
                reserve=plan, header=header_pack, position=header,
            ))
        else:
            # Element alignment exceeds the header's (e.g. CDR doubles):
            # two reservations with dynamic alignment between.
            plan = self.reserve_dynamic(str(header), header_align)
            self.static_offset = None
            self.align_guarantee = header_align
            split = self.reserve_dynamic(
                "%s * %d" % (n_expr, codec.size), codec.alignment
            )
            self.add(m.PutAtomArray(
                variant="split", endian=self.fmt.endian, fmt=codec.format,
                size=codec.size, n_expr=n_expr, data_expr=expr,
                reserve=plan, header=header_pack, position=header,
                split_reserve=split,
            ))
        self.static_offset = None
        self.align_guarantee = max(
            m.largest_pow2_divisor(codec.size, 8),
            self.fmt.universal_alignment,
        )

    def _emit_elements(self, element_pres, iterable, n_expr, fixed):
        """The elements of an array whose header is already queued: one
        region when the analysis allows it, else a loop.  *fixed*: the
        array's length is the constant *n_expr*."""
        fixed_size = (self.element_storage(element_pres).storage_class
                      is StorageClass.FIXED)
        if not (fixed_size and self.region_enabled()
                and self._emit_element_region(element_pres, iterable,
                                              n_expr, fixed)):
            self._emit_element_loop(element_pres, iterable, n_expr)

    def _emit_element(self, element_pres, iterable):
        """One element of *iterable*, inside the loop at ``depth + 1``."""
        element = self.temp("_e")
        value = self.spell.element(iterable, self.index(), element)
        self.depth += 1
        self.emit(element_pres, value)
        self.depth -= 1
        return element

    def _emit_element_region(self, element_pres, iterable, n_expr, fixed):
        """Lower FIXED elements as one :class:`~repro.mir.ops.
        PutArrayRegion`; False (nothing emitted) when an element is not
        a single chunk or its stride carries padding."""
        trial = self.region_element(
            lambda: self._emit_element(element_pres, iterable),
            m.PutAtoms, m.Bind)
        if trial is None:
            return False
        element, body, align = trial
        chunk = body[-1]
        region = m.PutArrayRegion(
            endian=self.fmt.endian, fmt=chunk.fmt, stride=chunk.total,
            n_expr=n_expr, var=element, iterable=iterable,
            binds=tuple(body[:-1]),
            entries=chunk.entries, offsets=chunk.offsets,
            reserve=self.reserve_dynamic(
                "%s * %d" % (n_expr, chunk.total), align, chunk.reserve.var
            ),
        )
        if region.reserve.kind == "plain" or fixed:
            self.add(region)
        else:
            # An empty array writes no alignment padding (its loop form
            # never ran), so the aligned reserve is skipped with it.
            self.add(m.Branch(arms=[m.BranchArm(n_expr, [region])]))
        self.enter_unknown()
        return True

    def _emit_element_loop(self, element_pres, iterable, n_expr):
        self.flush()
        self.push_body()
        self.enter_unknown()
        element = self._emit_element(element_pres, iterable)
        self.flush()
        body = self.pop_body()
        self.add(m.Loop(kind="elements", body=body, var=element,
                        iterable=iterable, count_expr=n_expr))
        self.enter_unknown()

    # -- optional / union ------------------------------------------------

    def _emit_optional(self, pres, expr, named):
        self.flush()
        if not named:
            temp = self.temp("_v")
            self.add(m.Bind(temp, expr))
            expr = temp
        self.push_body()
        self.enter_unknown()
        self._emit_array_header(pres.mint, "0")
        self.flush()
        absent = self.pop_body()
        self.push_body()
        self.enter_unknown()
        self._emit_array_header(pres.mint, "1")
        self.emit(pres.element, self.spell.deref(expr))
        self.flush()
        present = self.pop_body()
        self.add(m.Branch(arms=[
            m.BranchArm(self.spell.is_null(expr), absent),
            m.BranchArm(None, present),
        ]))
        self.enter_unknown()

    def _emit_union(self, pres, expr, named=True):
        self.flush()
        disc = self.temp("_d")
        payload = self.temp("_u")
        self.add(m.Bind(*self.spell.union_split(disc, payload, expr)))
        codec = self.fmt.atom_codec(pres.mint.discriminator)
        arms = []
        default_arm = None
        for arm in pres.arms:
            if arm.is_default:
                default_arm = arm
                continue
            self.push_body()
            self.enter_unknown()
            self.add_atom(codec, disc)
            self.emit(arm.pres, self.spell.union_arm(payload, expr, arm.name))
            self.flush()
            arms.append(m.BranchArm(
                self.spell.labels(disc, arm.labels), self.pop_body()
            ))
        self.push_body()
        self.enter_unknown()
        if default_arm is not None:
            self.add_atom(codec, disc)
            self.emit(default_arm.pres,
                      self.spell.union_arm(payload, expr, default_arm.name))
            self.flush()
        else:
            self.add(_no_arm(self.spell, "MarshalError", disc))
        self.add(m.Branch(arms=_close_arms(self.spell, arms,
                                           self.pop_body())))
        self.enter_unknown()

    #: PRES node type -> the method lowering it.
    _EMIT = {
        p.PresVoid: lambda self, pres, expr, named: None,
        p.PresRef: _emit_ref, p.PresDirect: _emit_atom,
        p.PresEnum: _emit_atom, p.PresString: _emit_string,
        p.PresBytes: _emit_bytes, p.PresFixedArray: _emit_fixed_array,
        p.PresCountedArray: _emit_counted_array,
        p.PresOptPtr: _emit_optional, p.PresStruct: _emit_fields,
        p.PresException: _emit_fields, p.PresUnion: _emit_union,
    }


class UnmarshalLower(_LowerBase):
    """Lowers unmarshal code: ops reading ``d`` at offset ``o``.

    :meth:`emit` returns an *expression* for the decoded value (in C: one
    that stores it to the dest); the expression is valid once
    :meth:`flush` has been called.  Aggregates compose their field
    expressions, so one chunk decodes a whole fixed-layout region with a
    single ``unpack_from``: the C stores each field through its dest,
    and a spelling that builds records (Python) builds each in the
    decoder's frame — ``_r1 = _new(Coord)`` and the stores into its
    fields — once the chunk that reads them is flushed.
    """

    def __init__(self, wire_format, flags, presc, out_of_line,
                 zero_copy=False, names=None):
        super().__init__(wire_format, flags, presc, out_of_line, names)
        self.zero_copy = zero_copy
        self._tuple_var = None
        self._out_count = 0
        #: Records completed since the last flush: ``(var, class,
        #: [(target, value)])``, built after the chunk their values read.
        self._records = []
        #: An atom's text (``_t3[0]``) -> its unpack tuple and index
        #: there, and each tuple -> how many items it holds: what merges
        #: a record's field stores into runs.
        self._items = {}
        self._widths = {}

    # ------------------------------------------------------------------
    # Chunk machinery
    # ------------------------------------------------------------------

    def read_atom(self, codec, count=1, star=False, dest=""):
        """Queue an atom read into *dest*; returns the (post-flush)
        element expression (a tuple slice for starred entries)."""
        starred = star or count > 1
        if not self.flags.chunk_atoms:
            return self._read_atom_now(codec, count, starred, dest)
        self._admit_atom(codec)
        if self._tuple_var is None or not self.chunk:
            self._tuple_var = self.temp("_t")
            self._out_count = 0
        entry = self.entry(codec, count, out_index=self._out_count,
                           star=starred)
        self.chunk.append(entry)
        self._out_count += count
        text = self.spell.item(self._tuple_var, entry.out_index,
                               count if starred else None, dest)
        if not starred:
            self._items[text] = self._tuple_var, entry.out_index
        return text

    def _read_atom_now(self, codec, count, starred, dest):
        """Unchunked per-atom read (baseline-shaped code)."""
        self._align_for(codec.alignment)
        var = self.temp("_v")
        fmt = (
            "%d%s" % (count, codec.format) if starred else codec.format
        )
        self.add(m.GetAtoms(
            var=var, endian=self.fmt.endian, fmt=fmt,
            total=codec.size * count, entries=(
                self.entry(codec, count, star=starred),
            ),
            single=True, subscript=None if starred else 0,
        ))
        self._advance(codec.size * count)
        return _Var(self.spell.item(var, 0, count if starred else None,
                                    dest, whole=True))

    def _align_for(self, align):
        if self.static_offset is not None:
            pad = -self.static_offset % align
            if pad:
                self.add(m.AlignTo(mode="pad", pad=pad))
                self._advance(pad)
            return
        if self.align_guarantee >= align:
            return
        self.add(m.AlignTo(mode="dynamic", align=align))
        self.align_guarantee = align

    def flush(self):
        if not self.chunk:
            self._tuple_var = None
            return
        entries, self.chunk = self.chunk, []
        self.chunks_emitted += 1
        self.atoms_emitted += sum(entry.count for entry in entries)
        tuple_var, self._tuple_var = self._tuple_var, None
        self._widths[tuple_var] = self._out_count
        self._out_count = 0
        if self.static_offset is not None:
            fmt, total, _offsets = self._layout(entries, self.static_offset)
        else:
            base_align = self._chunk_base_align
            if self.align_guarantee < base_align:
                self.add(m.AlignTo(mode="dynamic", align=base_align))
                self.align_guarantee = base_align
            fmt, total, _offsets = self._layout(entries, 0)
        self.add(m.GetAtoms(
            var=tuple_var, endian=self.fmt.endian, fmt=fmt, total=total,
            entries=tuple(entries),
        ))
        self._advance(total)
        self._build_records()

    # ------------------------------------------------------------------
    # PRES dispatch — returns value expressions
    # ------------------------------------------------------------------

    def emit(self, pres, dest=""):
        """The decoded value of *pres*, stored to *dest* in C."""
        handler = self._EMIT.get(type(pres))
        if handler is None:
            raise BackEndError(
                "cannot unmarshal PRES node %r" % type(pres).__name__
            )
        return handler(self, pres, dest)

    def _emit_void(self, pres, dest):
        return _Var(self.spell.none)

    def _emit_atom(self, pres, dest):
        codec = self.fmt.atom_codec(pres.mint)
        return self.unpack_expr(codec, self.read_atom(codec, dest=dest))

    def _emit_record(self, pres, dest):
        exprs = [self.emit(struct_field.pres,
                           self.spell.dest_field(dest, struct_field.name))
                 for struct_field in pres.fields]
        if isinstance(pres, p.PresException):
            # Called: FlickUserException.__init__ sets the message.
            return self.spell.record(m.mangle(pres.class_name), exprs)
        if not self.spell.builds_records:
            return self.spell.record(m.mangle(pres.record_name), exprs)
        var = self.names.record()
        self.record_into(var, m.mangle(pres.record_name),
                         [struct_field.name for struct_field in pres.fields],
                         exprs)
        # Not a _Var: emit_value binds it, as it binds the C's stores.
        return self.spell.produced(var)

    def record_into(self, var, name, fields, exprs):
        """Build the record class *name* in *var*, each of *fields* set
        to its expression of *exprs*: at once when no chunk is pending,
        else when the chunk the expressions read is flushed."""
        self._records.append((var, name, [
            ("%s.%s" % (var, field_name), expr)
            for field_name, expr in zip(fields, exprs)]))
        if not self.chunk:
            self._build_records()

    def _build_records(self):
        """The records completed since the last flush: each one's
        ``_new``, then the stores into their fields, the items of one
        unpack tuple first, in tuple order, a run of them one store
        (the whole tuple, or a slice of it)."""
        records, self._records = self._records, []
        stores = []
        for var, name, fields in records:
            self.add(m.NewRecord(var, name))
            stores.extend(fields)
        places = self._items
        items = [(places[value], target, value) for target, value in stores
                 if value in places]
        order = list(dict.fromkeys(place[0] for place, _, _ in items))
        items.sort(key=lambda item: (order.index(item[0][0]), item[0][1]))
        runs = []
        for (var, index), target, value in items:
            if runs and runs[-1][0] == var and runs[-1][2] + 1 == index:
                runs[-1][2] = index
                runs[-1][3].append(target)
            else:
                runs.append([var, index, index, [target], value])
        for var, first, last, targets, value in runs:
            if first == last:
                pass
            elif first == 0 and last + 1 == self._widths[var]:
                value = var
            else:
                value = "%s[%d:%d]" % (var, first, last + 1)
            self.add(m.SetFields(tuple(targets), value))
        for target, value in stores:
            if value not in places:
                self.add(m.SetFields((target,), value))

    def emit_value(self, pres, dest=""):
        """Like :meth:`emit` but flushed and materialized in a variable."""
        expr = self.emit(pres, dest)
        self.flush()
        if isinstance(expr, _Var):
            return expr
        return self._hold(self.temp("_v"), expr)

    def _hold(self, var, expr):
        """Bind *expr* to *var* (in C: evaluate it, storing the value);
        returns the variable as the table spells it."""
        self.add(m.Bind(*self.spell.hold(var, expr)))
        return self._produced(var)

    def _produced(self, var):
        return _Var(self.spell.produced(var))

    def _emit_ref(self, pres, dest):
        if self.should_outline(pres):
            function = self.out_of_line.request("u", pres.name)
            self.flush()
            var = self.temp("_v")
            self.add(m.CallOutOfLine(
                kind="u", name=pres.name, function=function,
                var=self.spell.target(var, dest),
            ))
            self.enter_unknown()
            return self._produced(var)
        return self.emit(self.resolve(pres), dest)

    # -- arrays ----------------------------------------------------------

    def _read_array_header(self, mint_array):
        """Read the length/descriptor header; returns the count expr (a
        realized variable), or None when the format writes no header."""
        header = self.fmt.array_header_size(mint_array)
        if header == 0:
            return None
        self.flush()
        if header == 4:
            self._align_for(self.fmt.array_header_alignment(mint_array))
            var = self.temp("_n")
            self.add(m.GetArrayHeader(
                var=var, endian=self.fmt.endian, fmt="I", index=0,
                advance=4,
            ))
            self._advance(4)
            return var
        if header == 8:
            self._align_for(4)
            var = self.temp("_n")
            self.add(m.GetArrayHeader(
                var=var, endian=self.fmt.endian, fmt="II", index=1,
                advance=8,
            ))
            self._advance(8)
            return var
        raise BackEndError("unsupported array header size %d" % header)

    def _check_remaining(self, size_expr):
        self.add(m.CheckRemaining(str(size_expr)))

    def _emit_string(self, pres, dest):
        self.flush()
        count = self._read_array_header(pres.mint)
        if count is None:
            raise BackEndError("string without a length header")
        nul = 1 if self.fmt.string_nul_terminated else 0
        if nul:
            # The count includes the NUL (CORBA 2.0 ch. 12), so 0 is
            # not a string.
            self.add(m.BoundsCheck(
                "%s < 1" % count, "UnmarshalError",
                "string length 0 too short",
            ))
        if pres.bound is not None:
            self.add(m.BoundsCheck(
                "%s > %d" % (count, pres.bound + nul), "UnmarshalError",
                "string exceeds bound %d" % pres.bound,
            ))
        self._check_remaining(count)
        var = self.temp("_v")
        if pres.carries_length:
            mode = "raw"
        elif not self.flags.memcpy_arrays:
            # Character-at-a-time decode (memcpy ablation).
            mode = "slow"
        else:
            mode = "decode"
        self.add(m.GetRun(
            var=self.spell.target(var, dest), kind="string",
            count_expr=count, nul=nul, mode=mode,
            pad_to4=self.fmt.pads_byte_runs(pres.mint),
        ))
        self.static_offset = None
        self.align_guarantee = self.fmt.universal_alignment
        return self._produced(var)

    def _emit_bytes(self, pres, dest):
        self.flush()
        count = self._read_array_header(pres.mint)
        if pres.fixed_length is not None:
            if count is not None:
                self.add(m.BoundsCheck(
                    "%s != %d" % (count, pres.fixed_length),
                    "UnmarshalError", "fixed opaque length mismatch",
                ))
            count = str(pres.fixed_length)
        elif count is None:
            raise BackEndError("variable opaque without a length header")
        elif pres.bound is not None:
            self.add(m.BoundsCheck(
                "%s > %d" % (count, pres.bound), "UnmarshalError",
                "opaque exceeds bound %d" % pres.bound,
            ))
        self._check_remaining(count)
        var = self.temp("_v")
        self.add(m.GetRun(
            var=self.spell.target(var, dest), kind="bytes",
            count_expr=count, mode="view" if self.zero_copy else "copy",
            pad_to4=self.fmt.pads_byte_runs(pres.mint),
            fixed=pres.fixed_length is not None,
        ))
        self.static_offset = None
        self.align_guarantee = self.fmt.universal_alignment
        return self._produced(var)

    def _atom_element_codec(self, element_pres):
        element = self.resolve(element_pres)
        if isinstance(element, (p.PresDirect, p.PresEnum)):
            return self.fmt.atom_codec(element.mint), element
        return None, element

    def _emit_fixed_array(self, pres, dest):
        codec, _element = self._atom_element_codec(pres.element)
        count = self._read_array_header(pres.mint)
        if count is not None:
            self.add(m.BoundsCheck(
                "%s != %d" % (count, pres.length), "UnmarshalError",
                "fixed array length mismatch",
            ))
        if codec is not None and self.flags.memcpy_arrays:
            slice_expr = self.read_atom(codec, count=pres.length, star=True,
                                        dest=dest)
            return self.spell.atom_list(codec.conversion, slice_expr)
        if codec is not None and pres.length <= UNROLL_LIMIT and count is None:
            return self.spell.list_of([
                self.unpack_expr(codec, self.read_atom(
                    codec, dest=self.spell.dest_index(dest, index)))
                for index in range(pres.length)
            ])
        return self._emit_elements(pres.element, str(pres.length), dest,
                                   counted=False)

    def _emit_counted_array(self, pres, dest):
        count = self._read_array_header(pres.mint)
        if count is None:
            raise BackEndError("counted array without a length header")
        if pres.bound is not None:
            self.add(m.BoundsCheck(
                "%s > %d" % (count, pres.bound), "UnmarshalError",
                "array exceeds bound %d" % pres.bound,
            ))
        codec, _element = self._atom_element_codec(pres.element)
        if codec is not None and self.flags.memcpy_arrays:
            self._align_for(codec.alignment)
            self._check_remaining("%s * %d" % (count, codec.size))
            var = self.temp("_v")
            self.add(m.GetAtomArray(
                var=self.spell.target(var, dest), endian=self.fmt.endian,
                fmt=codec.format, size=codec.size, count_expr=count,
                conversion=codec.conversion or "int",
            ))
            self.static_offset = None
            self.align_guarantee = max(
                m.largest_pow2_divisor(codec.size, 8),
                self.fmt.universal_alignment,
            )
            return self._produced(var)
        return self._emit_elements(pres.element, count, dest, counted=True)

    def _emit_elements(self, element_pres, count_expr, dest, counted):
        """Decode the elements of an array whose header has been read:
        one region when the analysis allows it, else a loop.  A count
        that came off the wire (*counted*) is checked before looping.
        """
        storage = self.element_storage(element_pres)
        if (storage.storage_class is StorageClass.FIXED
                and self.region_enabled()):
            var = self._emit_element_region(element_pres, count_expr, dest,
                                            counted)
            if var is not None:
                return var
        if counted:
            # Every element consumes at least its minimum wire size, so
            # a declared count the remaining bytes cannot hold can never
            # decode: reject it before building a single element (a
            # forged count would otherwise spin allocating first).
            self._check_remaining(
                "%s * %d" % (count_expr, max(storage.min_size, 1))
            )
        return self._emit_element_loop(element_pres, count_expr, dest,
                                       counted)

    def _emit_element(self, element_pres, dest, counted):
        """One element of *dest*, inside the loop at ``depth + 1``."""
        element = self.spell.dest_element(dest, self.index(), counted)
        self.depth += 1
        expr = self.emit(element_pres, element)
        self.depth -= 1
        return expr

    def _emit_element_region(self, element_pres, count_expr, dest, counted):
        """Lower FIXED elements as one :class:`~repro.mir.ops.
        GetArrayRegion`; None (nothing emitted) when an element is not
        a single chunk or its stride carries padding."""
        trial = self.region_element(
            lambda: self._emit_element(element_pres, dest, counted),
            m.GetAtoms, suffix=(m.NewRecord, m.SetFields),
        )
        if trial is None:
            return None
        element_expr, (chunk, *build), align = trial
        var = self.temp("_v")
        region = self.push_body()
        self._align_for(align)
        padded = bool(region)
        self._check_remaining("%s * %d" % (count_expr, chunk.total))
        self.add(m.GetArrayRegion(
            var=self.spell.target(var, dest), endian=self.fmt.endian,
            fmt=chunk.fmt, stride=chunk.total, count_expr=count_expr,
            tuple_var=chunk.var, element_expr=element_expr,
            counted=counted, body=build,
        ))
        self.pop_body()
        if padded and counted:
            # An empty array carries no alignment padding.
            self.add(m.Branch(arms=[
                m.BranchArm(count_expr, region),
                m.BranchArm(None, [m.Bind(*self.spell.empty(var, dest))]),
            ]))
        else:
            for op in region:
                self.add(op)
        self.enter_unknown()
        return self._produced(var)

    def _emit_element_loop(self, element_pres, count_expr, dest, counted):
        self.flush()
        var = self.temp("_v")
        append = self.temp("_a")
        for bind in self.spell.list_init(var, append, dest, count_expr,
                                         counted):
            self.add(m.Bind(*bind))
        self.push_body()
        self.enter_unknown()
        element_expr = self._emit_element(element_pres, dest, counted)
        self.flush()
        self.add(m.ExprStmt(self.spell.append(append, element_expr)))
        body = self.pop_body()
        self.add(m.Loop(kind="range", body=body, count_expr=count_expr))
        self.enter_unknown()
        return self._produced(var)

    # -- optional / union -------------------------------------------------

    def _emit_optional(self, pres, dest):
        count = self._read_array_header(pres.mint)
        if count is None:
            raise BackEndError("optional data without a header")
        var = self.temp("_v")
        self.push_body()
        self.add(m.Bind(*self.spell.absent(var, dest)))
        absent = self.pop_body()
        self.push_body()
        self.enter_unknown()
        element_expr = self.emit(pres.element, self.spell.dest_deref(dest))
        self.flush()
        self._hold(var, element_expr)
        present = self.pop_body()
        self.push_body()
        self.add(m.Raise(error="UnmarshalError",
                         message_expr="bad optional count"))
        bad = self.pop_body()
        self.add(m.Branch(arms=[
            m.BranchArm("%s == 0" % count, absent),
            m.BranchArm(self.spell.present(count, dest), present),
            m.BranchArm(None, bad),
        ]))
        self.enter_unknown()
        return self._produced(var)

    def _emit_union(self, pres, dest):
        self.flush()
        codec = self.fmt.atom_codec(pres.mint.discriminator)
        disc = self.unpack_expr(codec, self.read_atom(
            codec, dest=self.spell.dest_field(dest, "_d")))
        self.flush()
        disc_var = self.temp("_d")
        self.add(m.Bind(disc_var, disc))
        var = self.temp("_v")
        arms = []
        default_arm = None
        for arm in pres.arms:
            if arm.is_default:
                default_arm = arm
                continue
            self.push_body()
            self.enter_unknown()
            self._emit_union_arm(arm, var, disc_var, dest)
            arms.append(m.BranchArm(
                self.spell.labels(disc_var, arm.labels), self.pop_body()
            ))
        self.push_body()
        self.enter_unknown()
        if default_arm is not None:
            self._emit_union_arm(default_arm, var, disc_var, dest)
        else:
            self.add(_no_arm(self.spell, "UnmarshalError", disc_var))
        self.add(m.Branch(arms=_close_arms(self.spell, arms,
                                           self.pop_body())))
        self.enter_unknown()
        return self._produced(var)

    def _emit_union_arm(self, arm, var, disc_var, dest):
        payload = self.emit(arm.pres, self.spell.dest_arm(dest, arm.name))
        self.flush()
        self.add(m.Bind(*self.spell.union_value(var, disc_var, payload)))

    #: PRES node type -> the method lowering it.
    _EMIT = {
        p.PresVoid: _emit_void, p.PresRef: _emit_ref,
        p.PresDirect: _emit_atom, p.PresEnum: _emit_atom,
        p.PresString: _emit_string, p.PresBytes: _emit_bytes,
        p.PresFixedArray: _emit_fixed_array,
        p.PresCountedArray: _emit_counted_array,
        p.PresOptPtr: _emit_optional, p.PresStruct: _emit_record,
        p.PresException: _emit_record, p.PresUnion: _emit_union,
    }


def layout_entries(entries, start):
    """Lay out a chunk beginning at absolute offset *start*.

    Pads are computed against the true wire positions, so chunked and
    unchunked code produce byte-identical messages.  Returns
    ``(fmt, total, offsets)``, offsets relative to the chunk base.
    """
    parts = []
    offset = start
    offsets = []
    for entry in entries:
        pad = -offset % entry.align
        if pad:
            parts.append("%dx" % pad)
        offset += pad
        offsets.append(offset - start)
        if entry.star or entry.count > 1:
            parts.append("%d%s" % (entry.count, entry.fmt))
        else:
            parts.append(entry.fmt)
        offset += entry.size * entry.count
    return "".join(parts), offset - start, offsets


def _no_arm(spell, error, disc):
    """The raise of a discriminator no arm of the union takes."""
    message, literal = spell.no_arm(disc)
    return m.Raise(error=error, message_expr=message, literal=literal)


def _close_arms(spell, arms, tail):
    """*arms* of a union switch and the *tail* every other value takes."""
    return arms + [m.BranchArm(None if arms else spell.true, tail)]


def _entry_codec(entry):
    """A codec-like view of an AtomEntry (for chunk admission)."""
    return _CodecView(entry.fmt, entry.size, entry.align)


class _CodecView:
    __slots__ = ("format", "size", "alignment")

    def __init__(self, fmt, size, alignment):
        self.format = fmt
        self.size = size
        self.alignment = alignment
