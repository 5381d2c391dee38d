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

Value positions are Python expression strings; renderers either paste
them (source renderer) or compile them once (closure renderer).
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


class NamePool:
    """Per-function temporary names; numbering starts at 1 so generated
    temps never collide with the reserved header offset ``_o0``."""

    def __init__(self):
        self._counter = 0

    def temp(self, prefix="_t"):
        self._counter += 1
        return "%s%d" % (prefix, self._counter)

    def mark(self):
        return self._counter

    def rewind(self, mark):
        """Give back every name handed out since :meth:`mark`."""
        self._counter = mark


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

    def region_element(self, emit_element, chunk_type, prefix=()):
        """Lower one array element with its base assumed aligned for any
        atom, to learn whether the whole array can be one region.

        Returns ``(emit_element's result, body, base alignment)`` when
        the element is a single *chunk_type* chunk (after *prefix* ops
        only) that repeats at a padding-free stride from a base this
        wire format would align the same way.  Otherwise returns None
        with names and counters rewound, so the loop lowered instead is
        exactly what it would have been.  Appends nothing either way.
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
        chunk = body[-1] if body else None
        if (isinstance(chunk, chunk_type)
                and all(isinstance(op, prefix) for op in body[:-1])):
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
        return m.AtomEntry(
            fmt=codec.format, size=codec.size, align=codec.alignment,
            count=count, star=star, expr=expr, out_index=out_index,
        )

    # -- conversions ----------------------------------------------------

    @staticmethod
    def pack_expr(codec, expr):
        """Wrap *expr* for packing (bool is an int subclass; only chars
        need conversion)."""
        if codec.conversion == "char":
            return "ord(%s)" % expr
        return expr

    @staticmethod
    def unpack_expr(codec, expr):
        if codec.conversion == "char":
            return "chr(%s)" % expr
        if codec.conversion == "bool":
            return "bool(%s)" % expr
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
        self.chunk.append(
            self.entry(codec, count, self.pack_expr(codec, expr))
        )
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

    def emit(self, pres, expr):
        """Lower marshal ops for *pres* reading the presented value from
        the Python expression *expr*."""
        if isinstance(pres, p.PresVoid):
            return
        if isinstance(pres, p.PresRef):
            self._emit_ref(pres, expr)
        elif isinstance(pres, (p.PresDirect, p.PresEnum)):
            self.add_atom(self.fmt.atom_codec(pres.mint), expr)
        elif isinstance(pres, p.PresString):
            self._emit_string(pres, expr)
        elif isinstance(pres, p.PresBytes):
            self._emit_bytes(pres, expr)
        elif isinstance(pres, p.PresFixedArray):
            self._emit_fixed_array(pres, expr)
        elif isinstance(pres, p.PresCountedArray):
            self._emit_counted_array(pres, expr)
        elif isinstance(pres, p.PresOptPtr):
            self._emit_optional(pres, expr)
        elif isinstance(pres, p.PresStruct):
            self._emit_struct(pres, expr)
        elif isinstance(pres, p.PresUnion):
            self._emit_union(pres, expr)
        elif isinstance(pres, p.PresException):
            self._emit_exception(pres, expr)
        else:
            raise BackEndError(
                "cannot marshal PRES node %r" % type(pres).__name__
            )

    def _emit_ref(self, pres, expr):
        if self.should_outline(pres):
            function = self.out_of_line.request("m", pres.name)
            self.flush()
            self.add(m.CallOutOfLine(
                kind="m", name=pres.name, function=function, arg_expr=expr,
            ))
            self.enter_unknown()
        else:
            self.emit(self.resolve(pres), expr)

    def _emit_struct(self, pres, expr):
        if len(pres.fields) > 1 and not expr.isidentifier():
            # Hoist the base object: the Python analog of the paper's
            # chunk pointer (one base, constant "offsets" = attributes).
            base = self.temp("_s")
            self.add(m.Bind(base, expr))
            expr = base
        for struct_field in pres.fields:
            self.emit(struct_field.pres, "%s.%s" % (expr, struct_field.name))

    def _emit_exception(self, pres, expr):
        if len(pres.fields) > 1 and not expr.isidentifier():
            base = self.temp("_s")
            self.add(m.Bind(base, expr))
            expr = base
        for struct_field in pres.fields:
            self.emit(struct_field.pres, "%s.%s" % (expr, struct_field.name))

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

    def _emit_string(self, pres, expr):
        self.flush()
        data = self.temp("_s")
        if pres.carries_length:
            # The length-carrying presentation (paper section 2.2): the
            # application hands over encoded bytes; no count, no encode.
            self.add(m.Bind(data, expr))
        else:
            self.add(m.Bind(data, "%s.encode('latin-1')" % expr))
        if pres.bound is not None:
            self.add(m.BoundsCheck(
                "len(%s) > %d" % (data, pres.bound), "MarshalError",
                "string exceeds bound %d" % pres.bound,
            ))
        n = self.temp("_n")
        nul = 1 if self.fmt.string_nul_terminated else 0
        self.add(m.Bind(n, "len(%s)%s" % (data, " + 1" if nul else "")))
        self._emit_byte_run(pres.mint, data, n, nul=nul)

    def _emit_bytes(self, pres, expr):
        self.flush()
        if pres.fixed_length is not None:
            self.add(m.BoundsCheck(
                "len(%s) != %d" % (expr, pres.fixed_length), "MarshalError",
                "opaque must be exactly %d bytes" % pres.fixed_length,
            ))
            self._emit_byte_run(
                pres.mint, expr, str(pres.fixed_length),
                static_count=pres.fixed_length,
            )
            return
        if pres.bound is not None:
            self.add(m.BoundsCheck(
                "len(%s) > %d" % (expr, pres.bound), "MarshalError",
                "opaque exceeds bound %d" % pres.bound,
            ))
        n = self.temp("_n")
        self.add(m.Bind(n, "len(%s)" % expr))
        self._emit_byte_run(pres.mint, expr, n)

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
            self.add(m.Bind(stage, "bytes(%s)" % data_expr))
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
        self.add(m.StoreByte(offset, element))
        body = self.pop_body()
        self.add(m.Loop(kind="bytes", body=body, var=element,
                        iterable=data_expr))
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

    def _emit_fixed_array(self, pres, expr):
        self.add(m.BoundsCheck(
            "len(%s) != %d" % (expr, pres.length), "MarshalError",
            "fixed array needs %d elements" % pres.length,
        ))
        codec = self._atom_element_codec(pres.element)
        header = self.fmt.array_header_size(pres.mint)
        if codec is not None and self.flags.memcpy_arrays:
            # Statically-sized atomic array: join the current chunk as one
            # star entry (a single batched pack).
            self._emit_array_header(pres.mint, str(pres.length))
            if codec.conversion == "char":
                expr = "map(ord, %s)" % expr
            self._admit_atom(codec)
            self.chunk.append(
                self.entry(codec, pres.length, expr, star=True)
            )
            if not self.flags.chunk_atoms or not self.flags.batch_buffer_checks:
                self.flush()
            return
        if codec is not None and pres.length <= UNROLL_LIMIT and header == 0:
            for index in range(pres.length):
                self.add_atom(codec, "%s[%d]" % (expr, index))
            return
        self._emit_array_header(pres.mint, str(pres.length))
        self._emit_elements(pres.element, expr, str(pres.length))

    def _emit_counted_array(self, pres, expr):
        self.flush()
        n = self.temp("_n")
        self.add(m.Bind(n, "len(%s)" % expr))
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
        self._emit_elements(pres.element, expr, n)

    def _emit_batched_array(self, mint_array, codec, expr, n_expr):
        """Variable atomic array as one header + one array-wide pack."""
        header = self.fmt.array_header_size(mint_array)
        header_align = self.fmt.array_header_alignment(mint_array)
        if codec.conversion == "char":
            expr = "map(ord, %s)" % expr
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

    def _emit_elements(self, element_pres, expr, n_expr):
        """The elements of an array whose header is already queued: one
        region when the analysis allows it, else a loop."""
        fixed = (self.element_storage(element_pres).storage_class
                 is StorageClass.FIXED)
        if not (fixed and self.region_enabled()
                and self._emit_element_region(element_pres, expr, n_expr)):
            self._emit_element_loop(element_pres, expr)

    def _emit_element_region(self, element_pres, expr, n_expr):
        """Lower FIXED elements as one :class:`~repro.mir.ops.
        PutArrayRegion`; False (nothing emitted) when an element is not
        a single chunk or its stride carries padding."""
        def emit_element():
            element = self.temp("_e")
            self.emit(element_pres, element)
            return element

        trial = self.region_element(emit_element, m.PutAtoms, m.Bind)
        if trial is None:
            return False
        element, body, align = trial
        chunk = body[-1]
        region = m.PutArrayRegion(
            endian=self.fmt.endian, fmt=chunk.fmt, stride=chunk.total,
            n_expr=n_expr, var=element, iterable=expr, binds=tuple(body[:-1]),
            entries=chunk.entries, offsets=chunk.offsets,
            reserve=self.reserve_dynamic(
                "%s * %d" % (n_expr, chunk.total), align, chunk.reserve.var
            ),
        )
        if region.reserve.kind == "plain" or n_expr.isdigit():
            self.add(region)
        else:
            # An empty array writes no alignment padding (its loop form
            # never ran), so the aligned reserve is skipped with it.
            self.add(m.Branch(arms=[m.BranchArm(n_expr, [region])]))
        self.enter_unknown()
        return True

    def _emit_element_loop(self, element_pres, expr):
        self.flush()
        element = self.temp("_e")
        self.push_body()
        self.enter_unknown()
        self.emit(element_pres, element)
        self.flush()
        body = self.pop_body()
        self.add(m.Loop(kind="elements", body=body, var=element,
                        iterable=expr))
        self.enter_unknown()

    # -- optional / union ------------------------------------------------

    def _emit_optional(self, pres, expr):
        self.flush()
        if not expr.isidentifier():
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
        self.emit(pres.element, expr)
        self.flush()
        present = self.pop_body()
        self.add(m.Branch(arms=[
            m.BranchArm("%s is None" % expr, absent),
            m.BranchArm(None, present),
        ]))
        self.enter_unknown()

    def _emit_union(self, pres, expr):
        self.flush()
        disc = self.temp("_d")
        payload = self.temp("_u")
        self.add(m.Bind("%s, %s" % (disc, payload), expr))
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
            self.emit(arm.pres, payload)
            self.flush()
            arms.append(m.BranchArm(
                _labels_condition(disc, arm.labels), self.pop_body()
            ))
        self.push_body()
        self.enter_unknown()
        if default_arm is not None:
            self.add_atom(codec, disc)
            self.emit(default_arm.pres, payload)
            self.flush()
        else:
            self.add(m.Raise(
                error="MarshalError",
                message_expr="'no union arm for discriminator '"
                             " + repr(%s)" % disc,
                literal=False,
            ))
        tail = self.pop_body()
        if arms:
            arms.append(m.BranchArm(None, tail))
        else:
            arms.append(m.BranchArm("True", tail))
        self.add(m.Branch(arms=arms))
        self.enter_unknown()


class UnmarshalLower(_LowerBase):
    """Lowers unmarshal code: ops reading ``d`` at offset ``o``.

    :meth:`emit` returns a Python *expression* for the decoded value; the
    expression is valid once :meth:`flush` has been called.  Aggregates
    compose their field expressions inline, so one chunk decodes a whole
    fixed-layout region with a single ``unpack_from``.
    """

    def __init__(self, wire_format, flags, presc, out_of_line,
                 zero_copy=False, names=None):
        super().__init__(wire_format, flags, presc, out_of_line, names)
        self.zero_copy = zero_copy
        self._tuple_var = None
        self._out_count = 0

    # ------------------------------------------------------------------
    # Chunk machinery
    # ------------------------------------------------------------------

    def read_atom(self, codec, count=1, star=False):
        """Queue an atom read; returns the (post-flush) element expression
        (or tuple-slice expression for starred entries)."""
        starred = star or count > 1
        if not self.flags.chunk_atoms:
            return self._read_atom_now(codec, count, starred)
        self._admit_atom(codec)
        if self._tuple_var is None or not self.chunk:
            self._tuple_var = self.temp("_t")
            self._out_count = 0
        entry = self.entry(codec, count, out_index=self._out_count,
                           star=starred)
        self.chunk.append(entry)
        self._out_count += count
        if starred:
            return "%s[%d:%d]" % (
                self._tuple_var, entry.out_index, entry.out_index + count
            )
        return "%s[%d]" % (self._tuple_var, entry.out_index)

    def _read_atom_now(self, codec, count, starred=False):
        """Unchunked per-atom read (baseline-shaped code)."""
        starred = starred or count > 1
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
        return var

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

    # ------------------------------------------------------------------
    # PRES dispatch — returns value expressions
    # ------------------------------------------------------------------

    def emit(self, pres):
        if isinstance(pres, p.PresVoid):
            return "None"
        if isinstance(pres, p.PresRef):
            return self._emit_ref(pres)
        if isinstance(pres, (p.PresDirect, p.PresEnum)):
            codec = self.fmt.atom_codec(pres.mint)
            return self.unpack_expr(codec, self.read_atom(codec))
        if isinstance(pres, p.PresString):
            return self._emit_string(pres)
        if isinstance(pres, p.PresBytes):
            return self._emit_bytes(pres)
        if isinstance(pres, p.PresFixedArray):
            return self._emit_fixed_array(pres)
        if isinstance(pres, p.PresCountedArray):
            return self._emit_counted_array(pres)
        if isinstance(pres, p.PresOptPtr):
            return self._emit_optional(pres)
        if isinstance(pres, p.PresStruct):
            return self._emit_struct(pres)
        if isinstance(pres, p.PresUnion):
            return self._emit_union(pres)
        if isinstance(pres, p.PresException):
            return self._emit_exception(pres)
        raise BackEndError(
            "cannot unmarshal PRES node %r" % type(pres).__name__
        )

    def emit_value(self, pres):
        """Like :meth:`emit` but flushed and materialized in a variable."""
        expr = self.emit(pres)
        self.flush()
        if expr.isidentifier() or expr == "None":
            return expr
        var = self.temp("_v")
        self.add(m.Bind(var, expr))
        return var

    def _emit_ref(self, pres):
        if self.should_outline(pres):
            function = self.out_of_line.request("u", pres.name)
            self.flush()
            var = self.temp("_v")
            self.add(m.CallOutOfLine(
                kind="u", name=pres.name, function=function, var=var,
            ))
            self.enter_unknown()
            return var
        return self.emit(self.resolve(pres))

    def _emit_struct(self, pres):
        field_exprs = [
            self.emit(struct_field.pres) for struct_field in pres.fields
        ]
        return "%s(%s)" % (
            m.mangle(pres.record_name), ", ".join(field_exprs)
        )

    def _emit_exception(self, pres):
        field_exprs = [
            self.emit(struct_field.pres) for struct_field in pres.fields
        ]
        return "%s(%s)" % (
            m.mangle(pres.class_name), ", ".join(field_exprs)
        )

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

    def _emit_string(self, pres):
        self.flush()
        count = self._read_array_header(pres.mint)
        if count is None:
            raise BackEndError("string without a length header")
        nul = 1 if self.fmt.string_nul_terminated else 0
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
            var=var, kind="string", count_expr=count, nul=nul, mode=mode,
            pad_to4=self.fmt.pads_byte_runs(pres.mint),
        ))
        self.static_offset = None
        self.align_guarantee = self.fmt.universal_alignment
        return var

    def _emit_bytes(self, pres):
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
            var=var, kind="bytes", count_expr=count,
            mode="view" if self.zero_copy else "copy",
            pad_to4=self.fmt.pads_byte_runs(pres.mint),
        ))
        self.static_offset = None
        self.align_guarantee = self.fmt.universal_alignment
        return var

    def _atom_element_codec(self, element_pres):
        element = self.resolve(element_pres)
        if isinstance(element, (p.PresDirect, p.PresEnum)):
            return self.fmt.atom_codec(element.mint), element
        return None, element

    def _emit_fixed_array(self, pres):
        codec, _element = self._atom_element_codec(pres.element)
        count = self._read_array_header(pres.mint)
        if count is not None:
            self.add(m.BoundsCheck(
                "%s != %d" % (count, pres.length), "UnmarshalError",
                "fixed array length mismatch",
            ))
        if codec is not None and self.flags.memcpy_arrays:
            slice_expr = self.read_atom(codec, count=pres.length, star=True)
            return self._convert_atom_slice(codec, slice_expr)
        if codec is not None and pres.length <= UNROLL_LIMIT and count is None:
            elements = [
                self.unpack_expr(codec, self.read_atom(codec))
                for _ in range(pres.length)
            ]
            return "[%s]" % ", ".join(elements)
        return self._emit_elements(pres.element, str(pres.length))

    def _convert_atom_slice(self, codec, slice_expr):
        if codec.conversion == "char":
            return "[chr(_c) for _c in %s]" % slice_expr
        if codec.conversion == "bool":
            return "[bool(_c) for _c in %s]" % slice_expr
        return "list(%s)" % slice_expr

    def _emit_counted_array(self, pres):
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
                var=var, endian=self.fmt.endian, fmt=codec.format,
                size=codec.size, count_expr=count,
                conversion=codec.conversion or "int",
            ))
            self.static_offset = None
            self.align_guarantee = max(
                m.largest_pow2_divisor(codec.size, 8),
                self.fmt.universal_alignment,
            )
            return var
        return self._emit_elements(pres.element, count, forgeable=True)

    def _emit_elements(self, element_pres, count_expr, forgeable=False):
        """Decode the elements of an array whose header has been read:
        one region when the analysis allows it, else a loop.  A count
        that came off the wire (*forgeable*) is checked before looping.
        """
        storage = self.element_storage(element_pres)
        if (storage.storage_class is StorageClass.FIXED
                and self.region_enabled()):
            var = self._emit_element_region(element_pres, count_expr)
            if var is not None:
                return var
        if forgeable:
            # Every element consumes at least its minimum wire size, so
            # a declared count the remaining bytes cannot hold can never
            # decode: reject it before building a single element (a
            # forged count would otherwise spin allocating first).
            self._check_remaining(
                "%s * %d" % (count_expr, max(storage.min_size, 1))
            )
        return self._emit_element_loop(element_pres, count_expr)

    def _emit_element_region(self, element_pres, count_expr):
        """Lower FIXED elements as one :class:`~repro.mir.ops.
        GetArrayRegion`; None (nothing emitted) when an element is not
        a single chunk or its stride carries padding."""
        trial = self.region_element(
            lambda: self.emit(element_pres), m.GetAtoms
        )
        if trial is None:
            return None
        element_expr, (chunk,), align = trial
        var = self.temp("_v")
        region = self.push_body()
        self._align_for(align)
        padded = bool(region)
        self._check_remaining("%s * %d" % (count_expr, chunk.total))
        self.add(m.GetArrayRegion(
            var=var, endian=self.fmt.endian, fmt=chunk.fmt,
            stride=chunk.total, count_expr=count_expr, tuple_var=chunk.var,
            element_expr=element_expr,
        ))
        self.pop_body()
        if padded and not count_expr.isdigit():
            # An empty array carries no alignment padding.
            self.add(m.Branch(arms=[
                m.BranchArm(count_expr, region),
                m.BranchArm(None, [m.Bind(var, "[]")]),
            ]))
        else:
            for op in region:
                self.add(op)
        self.enter_unknown()
        return var

    def _emit_element_loop(self, element_pres, count_expr):
        self.flush()
        var = self.temp("_v")
        self.add(m.Bind(var, "[]"))
        append = self.temp("_a")
        self.add(m.Bind(append, "%s.append" % var))
        self.push_body()
        self.enter_unknown()
        element_expr = self.emit(element_pres)
        self.flush()
        self.add(m.ExprStmt("%s(%s)" % (append, element_expr)))
        body = self.pop_body()
        self.add(m.Loop(kind="range", body=body, count_expr=count_expr))
        self.enter_unknown()
        return var

    # -- optional / union -------------------------------------------------

    def _emit_optional(self, pres):
        count = self._read_array_header(pres.mint)
        if count is None:
            raise BackEndError("optional data without a header")
        var = self.temp("_v")
        self.push_body()
        self.add(m.Bind(var, "None"))
        absent = self.pop_body()
        self.push_body()
        self.enter_unknown()
        element_expr = self.emit(pres.element)
        self.flush()
        self.add(m.Bind(var, element_expr))
        present = self.pop_body()
        self.push_body()
        self.add(m.Raise(error="UnmarshalError",
                         message_expr="bad optional count"))
        bad = self.pop_body()
        self.add(m.Branch(arms=[
            m.BranchArm("%s == 0" % count, absent),
            m.BranchArm("%s == 1" % count, present),
            m.BranchArm(None, bad),
        ]))
        self.enter_unknown()
        return var

    def _emit_union(self, pres):
        self.flush()
        codec = self.fmt.atom_codec(pres.mint.discriminator)
        disc = self.unpack_expr(codec, self.read_atom(codec))
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
            payload = self.emit(arm.pres)
            self.flush()
            self.add(m.Bind(var, "(%s, %s)" % (disc_var, payload)))
            arms.append(m.BranchArm(
                _labels_condition(disc_var, arm.labels), self.pop_body()
            ))
        self.push_body()
        self.enter_unknown()
        if default_arm is not None:
            payload = self.emit(default_arm.pres)
            self.flush()
            self.add(m.Bind(var, "(%s, %s)" % (disc_var, payload)))
        else:
            self.add(m.Raise(
                error="UnmarshalError",
                message_expr="'no union arm for discriminator '"
                             " + repr(%s)" % disc_var,
                literal=False,
            ))
        tail = self.pop_body()
        if arms:
            arms.append(m.BranchArm(None, tail))
        else:
            arms.append(m.BranchArm("True", tail))
        self.add(m.Branch(arms=arms))
        self.enter_unknown()
        return var


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


def _labels_condition(disc, labels):
    if len(labels) == 1:
        return "%s == %r" % (disc, labels[0])
    return "%s in %r" % (disc, tuple(labels))


def _entry_codec(entry):
    """A codec-like view of an AtomEntry (for chunk admission)."""
    return _CodecView(entry.fmt, entry.size, entry.align)


class _CodecView:
    __slots__ = ("format", "size", "alignment")

    def __init__(self, fmt, size, alignment):
        self.format = fmt
        self.size = size
        self.alignment = alignment
