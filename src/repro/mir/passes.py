"""The MIR pass pipeline: section-3 optimizations as named passes.

Every pass name matches its :class:`~repro.core.options.OptFlags` field
1:1, so the CLI/benchmarks toggle passes by the same names reported in
``MirProgram.passes``.  Two kinds exist:

* **Lowering-integrated passes** run during the single PRES_C walk in
  :mod:`repro.mir.lower` — they decide op *shapes* (chunk coalescing,
  free-space-check batching, memcpy bulk copies, inlining, iterative
  lists) because the shapes feed the static-layout state machine.
* **IR→IR passes** rewrite a built :class:`~repro.mir.ops.MirProgram`
  in place: ``fold_header_constants`` and ``dedup_out_of_line``.

:class:`PassManager` records the active configuration on the program
and runs the IR→IR stage.
"""

from __future__ import annotations

import re
import struct as _struct

from repro.mir import lower
from repro.mir import ops as m

#: Passes consumed while lowering PRES_C to ops (shape-deciding).
LOWERING_PASSES = {
    "inline_marshal":
        "expand aggregate codecs in place; only recursion goes "
        "out of line (section 3.4)",
    "chunk_atoms":
        "coalesce adjacent fixed-size atoms into one multi-field "
        "pack/unpack at constant offsets (section 3.2)",
    "batch_buffer_checks":
        "hoist free-space checks to one buffer reserve per chunk "
        "(marshal-buffer management, section 3.2)",
    "memcpy_arrays":
        "bulk-copy byte runs and atomic arrays instead of per-element "
        "loops (section 3.2)",
    "iterative_lists":
        "lower tail-recursive list types to loops instead of "
        "recursive helpers (footnote 5)",
}

#: IR -> IR rewrites over the built program.
IR_PASSES = {
    "fold_header_constants":
        "fold constant leading reply atoms (status discriminators, "
        "array descriptors) into the header byte template",
    "dedup_out_of_line":
        "merge structurally identical out-of-line helper functions "
        "and alias their call sites",
}

#: All pass names, in pipeline order; 1:1 with OptFlags fields.
PASS_NAMES = dict(LOWERING_PASSES)
PASS_NAMES.update(IR_PASSES)


class PassManager:
    """Runs the IR→IR passes selected by an OptFlags configuration."""

    def __init__(self, flags):
        self.flags = flags

    def run(self, program):
        program.passes = {
            name: bool(getattr(self.flags, name)) for name in PASS_NAMES
        }
        if self.flags.fold_header_constants:
            fold_header_constants(program)
        if self.flags.dedup_out_of_line:
            dedup_out_of_line(program)
        return program


# ----------------------------------------------------------------------
# fold_header_constants
# ----------------------------------------------------------------------

_INT_LITERAL = re.compile(r"-?\d+\Z")


def fold_header_constants(program):
    """Bake constant leading reply-body atoms into the header template.

    Reply marshal functions start with a header template copy followed
    by the first body chunk, whose leading entries are often integer
    literals (the success/exception discriminator, descriptor words).
    Folding packs those literals — with their alignment padding — into
    a per-function template constant, shrinks the chunk, and re-lays-out
    the surviving entries from the advanced offset.  Total message bytes
    are unchanged, so later offsets and size patches are unaffected.
    """
    for fn in program.functions:
        if fn.kind not in ("m_rep_ok", "m_rep_exc"):
            continue
        if not fn.ops or not isinstance(fn.ops[0], m.PutHeader):
            continue
        header = fn.ops[0]
        index = None
        for position, op in enumerate(fn.ops[1:], start=1):
            # Binds and bounds checks do not write to the buffer, so the
            # template copy may safely absorb bytes written past them.
            if isinstance(op, (m.Bind, m.BoundsCheck)):
                continue
            if isinstance(op, m.PutAtoms):
                index = position
            break
        if index is None:
            continue
        chunk = fn.ops[index]
        if (chunk.start != len(header.template)
                or chunk.reserve.kind != "plain"):
            continue
        template = bytearray(header.template)
        offset = chunk.start
        folded = 0
        for entry in chunk.entries:
            if (entry.star or entry.count != 1
                    or not _INT_LITERAL.match(entry.expr)):
                break
            pad = -offset % entry.align
            template += b"\x00" * pad
            template += _struct.pack(
                chunk.endian + entry.fmt, int(entry.expr)
            )
            offset += pad + entry.size
            folded += 1
        if not folded:
            continue
        const = "_H" + fn.name[2:]
        header.const = const
        header.template = bytes(template)
        fn.consts = dict(fn.consts)
        fn.consts[const] = header.template
        remaining = chunk.entries[folded:]
        if remaining:
            fmt, total, offsets = lower.layout_entries(remaining, offset)
            chunk.entries = tuple(remaining)
            chunk.fmt = fmt
            chunk.total = total
            chunk.offsets = tuple(offsets)
            chunk.start = offset
            chunk.reserve.size = total
        else:
            fn.ops.pop(index)
    _drop_unreferenced_consts(program)


def _drop_unreferenced_consts(program):
    referenced = set()
    for fn in program.functions:
        for op in m.walk_ops(fn.ops):
            if isinstance(op, m.PutHeader):
                referenced.add(op.const)
    for fn in program.functions:
        for name in [n for n in fn.consts if n not in referenced]:
            del fn.consts[name]


# ----------------------------------------------------------------------
# dedup_out_of_line
# ----------------------------------------------------------------------


def dedup_out_of_line(program):
    """Merge structurally identical out-of-line helpers.

    Two helpers are identical when their op trees match with their own
    function name canonicalized (so self-recursive helpers of the same
    shape merge).  The first occurrence survives; every call site is
    rewritten through the alias map, iterated to a fixpoint so helpers
    that only differed by calls to since-merged helpers also merge.
    """
    while True:
        survivors = {}
        aliases = {}
        kept = []
        for fn in program.functions:
            if fn.kind not in ("m_helper", "u_helper"):
                kept.append(fn)
                continue
            key = (fn.kind, _canonical(fn))
            prior = survivors.get(key)
            if prior is None:
                survivors[key] = fn
                kept.append(fn)
            else:
                aliases[fn.name] = prior.name
        if not aliases:
            return
        program.functions[:] = kept
        program.aliases.update(aliases)
        for fn in program.functions:
            m.rewrite_calls(fn.ops, aliases)


def _canonical(fn):
    # Function names appear quoted inside the op repr (CallOutOfLine
    # targets); quoting keeps the substitution exact even when one
    # helper's name prefixes another's.  A marshal helper's call to
    # itself also names its type, which no printer reads.
    text = repr(fn.ops).replace("'%s'" % fn.name, "'@self@'")
    if fn.kind == "m_helper":
        text = text.replace("name=%r, function='@self@'" % fn.type_name,
                            "name='@self@', function='@self@'")
    return text
