"""MIR: the explicit marshal intermediate representation.

This module defines the typed op vocabulary shared by every renderer.
What travels on the wire is described once, by PRES_C; this IR is what
one walk of it lowers a stub's marshal/unmarshal behaviour to:
**lowered op sequences** (:class:`MirFunction` bodies produced by the
pass pipeline in :mod:`repro.mir.passes`) — straight-line typed ops with
struct formats and constant offsets already decided, which the
Python-source renderer, the closure renderer, and the C renderer consume
without re-running any optimization logic.

Value positions in lowered ops are expression strings in the target
language, spelled by the table the program was lowered with (Python:
:data:`repro.mir.render_py.SPELLING`; C:
:data:`repro.mir.render_c.SPELLING`).  Their free names are the
function's parameters plus variables bound by earlier ops (the renderer
contract, INTERNALS section 10); the renderers paste them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

#: Inline fixed arrays of atoms up to this many elements when chunking
#: without the batched-copy optimization; longer ones loop.
UNROLL_LIMIT = 16


def largest_pow2_divisor(value, limit):
    """The largest power of two <= limit dividing value (for alignment)."""
    align = limit
    while align > 1 and value % align:
        align //= 2
    return max(align, 1)


def mangle(name):
    return name.replace("::", "__").replace(" ", "_")


# ----------------------------------------------------------------------
# Lowered ops
# ----------------------------------------------------------------------


@dataclass
class Op:
    """Base class for lowered MIR ops."""


@dataclass
class ReservePlan:
    """How a marshal op acquires buffer space.

    kind:
      ``plain``    — ``var = b.reserve(size)``
      ``pad_base`` — statically known leading pad before a runtime-sized
                     region: ``var = b.reserve(P + (size)) + P`` plus a
                     zero fill of the pad bytes
      ``pad_var``  — dynamically aligned base: compute the pad at run
                     time, reserve pad+size, zero the pad
    """

    kind: str
    var: str
    size: object                  # int or expression string
    pad: int = 0                  # pad_base
    pad_var: Optional[str] = None  # pad_var
    align: int = 0                # pad_var


@dataclass
class AtomEntry:
    """One member of a chunk (a PutAtoms/GetAtoms op)."""

    fmt: str                      # struct format character
    size: int
    align: int
    count: int = 1
    star: bool = False
    expr: str = ""                # marshal: pack-ready value expression
    out_index: int = 0            # unmarshal: index into the tuple


@dataclass
class PutHeader(Op):
    """Copy a constant header template and apply field patches."""

    const: str                    # module-level constant name
    template: bytes = b""
    patches: Tuple[Tuple[int, str, str], ...] = ()


@dataclass
class HeaderPatch(Op):
    """Post-body size patch: write ``b.length - delta`` at offset."""

    offset: int
    fmt: str
    delta: int


@dataclass
class PutAtoms(Op):
    """One marshal chunk: a single reserve guarding one or more atoms
    packed at constant offsets from the chunk base (section 3.2)."""

    endian: str
    fmt: str                      # multi-field body format (with x pads)
    total: int
    offsets: Tuple[int, ...]
    entries: Tuple[AtomEntry, ...]
    reserve: ReservePlan
    batched: bool                 # one multi-field pack vs per-atom packs
    #: Absolute message offset of the chunk when statically known — the
    #: header-constant folding pass uses it to re-lay-out entries.
    start: Optional[int] = None


@dataclass
class GetAtoms(Op):
    """One unmarshal chunk: a single ``unpack_from`` into a tuple."""

    var: str
    endian: str
    fmt: str
    total: int
    entries: Tuple[AtomEntry, ...]
    single: bool = False          # per-atom read (chunking disabled)
    subscript: Optional[int] = None  # [0] for non-starred single reads


@dataclass
class GetArrayHeader(Op):
    """Read an array length/descriptor header into ``var``."""

    var: str
    endian: str
    fmt: str                      # "I" or "II"
    index: int                    # which unpacked word is the count
    advance: int                  # 4 or 8


@dataclass
class AlignTo(Op):
    """Advance the unmarshal offset to an alignment boundary.

    mode ``pad``: statically known pad → ``o += pad``
    mode ``dynamic``: ``o += -o % align``
    """

    mode: str
    pad: int = 0
    align: int = 0


@dataclass
class CopyRun(Op):
    """A byte-grained bulk copy (string/opaque), marshal direction.

    variant ``static``: compile-time byte count; one reserve covers
    header + data + trailing pad, all offsets constant.
    variant ``dynamic``: runtime byte count; one runtime-sized reserve.
    """

    variant: str
    reserve: ReservePlan
    data_expr: str
    header: Optional[Tuple[str, Tuple[str, ...]]] = None  # (fmt, args)
    position: int = 0             # data offset past the header
    lead_pad: int = 0             # static variant: pad before the header
    static_count: Optional[int] = None
    n_expr: str = ""
    end_var: str = ""             # dynamic variant
    nul: int = 0
    pad_to4: bool = False
    trail_pad: int = 0            # static variant trailing pad


@dataclass
class PutAtomArray(Op):
    """A counted atomic array as one header plus one array-wide pack.

    variant ``joint``: header and elements in one reservation.
    variant ``split``: element alignment exceeds the header's; two
    reservations with dynamic alignment between (e.g. CDR doubles).
    variant ``staged``: MIG typed-message staging — pack into a staging
    bytearray, then copy it after the header (one extra pass).
    """

    variant: str
    endian: str
    fmt: str                      # element format character
    size: int                     # element size
    n_expr: str
    data_expr: str
    reserve: ReservePlan
    header: Optional[Tuple[str, Tuple[str, ...]]] = None
    position: int = 0
    split_reserve: Optional[ReservePlan] = None
    stage_var: str = ""


@dataclass
class GetAtomArray(Op):
    """Counted atomic array decode: one array-wide unpack + convert."""

    var: str
    endian: str
    fmt: str
    size: int
    count_expr: str
    conversion: str = "int"       # int | float | bool | char


@dataclass
class PutArrayRegion(Op):
    """An array of fixed-layout elements as one message region
    (section 3.1): one reserve of ``n * stride`` bytes with the base
    aligned once, then the leaves of every element packed by one
    array-wide ``pack_into``.  The length header is not part of the
    region; it rides in the chunk before it.

    Emitted only for elements the storage analysis classes FIXED whose
    lowered body is a single chunk with a padding-free stride; anything
    else stays a :class:`Loop`.
    """

    endian: str
    fmt: str                      # one element's body (with x pads)
    stride: int
    n_expr: str
    var: str                      # element variable
    iterable: str
    binds: Tuple["Bind", ...]     # per-element base-object hoists
    entries: Tuple[AtomEntry, ...]
    offsets: Tuple[int, ...]      # of the entries within one element
    reserve: ReservePlan


@dataclass
class GetArrayRegion(Op):
    """Decode of an array region: one ``iter_unpack`` over exactly
    ``count * stride`` bytes (the preceding :class:`CheckRemaining`
    guards them), each element built by ``body`` (the records the
    Python spelling builds, empty otherwise) and ``element_expr`` from
    its unpacked tuple ``tuple_var``.  *counted*: a sequence, whose
    storage the decode allocates, not a fixed array."""

    var: str
    endian: str
    fmt: str
    stride: int
    count_expr: str
    tuple_var: str
    element_expr: str
    counted: bool = False
    body: List["Op"] = field(default_factory=list)


@dataclass
class GetRun(Op):
    """String/opaque decode from the receive buffer."""

    var: str
    kind: str                     # string | bytes
    count_expr: str
    nul: int = 0
    mode: str = "decode"          # decode | raw | slow | view | copy
    pad_to4: bool = False
    fixed: bool = False           # bytes: a fixed-length opaque array


@dataclass
class CheckRemaining(Op):
    """Reject a count that exceeds the remaining receive bytes."""

    size_expr: str


@dataclass
class ReserveOne(Op):
    """``var = b.reserve(1)`` — the naive per-byte free-space check
    (memcpy/check-hoisting passes disabled)."""

    var: str


@dataclass
class StoreByte(Op):
    """``b.data[offset_var] = value`` — one byte store."""

    offset_var: str
    value_expr: str


@dataclass
class PadToFour(Op):
    """Marshal-side dynamic pad to a 4-byte boundary (slow byte runs)."""

    pad_var: str
    offset_var: str


@dataclass
class ReplyErrorTail(Op):
    """Marker for the protocol-specific unknown-reply-status tail of
    ``_u_rep_*``; renderers expand it via the back end's
    ``reply_error_tail_ops`` hook result stored in ``ops``."""

    ops: List["Op"] = field(default_factory=list)


@dataclass
class BoundsCheck(Op):
    """``if cond: raise Error('message')`` — bound/length validation."""

    cond: str
    error: str                    # MarshalError | UnmarshalError
    message: str


@dataclass
class Bind(Op):
    """``var = expr``."""

    var: str
    expr: str


@dataclass
class NewRecord(Op):
    """``var = _new(cls)`` — a record the decoder builds in its own
    frame, its fields then set by :class:`SetFields` (the Python
    spelling; user exceptions are still called)."""

    var: str
    cls: str


@dataclass
class SetFields(Op):
    """``t0, t1, ... = expr`` — store into built records' fields: one
    target and its value, or a run of one unpack tuple's items."""

    targets: Tuple[str, ...]
    expr: str


@dataclass
class ExprStmt(Op):
    """Evaluate an expression for effect (e.g. a list append)."""

    expr: str


@dataclass
class CallOutOfLine(Op):
    """Call an out-of-line helper: marshal ``_m_X(b, expr)`` or
    unmarshal ``var, o = _u_X(d, o)``."""

    kind: str                     # m | u
    name: str                     # helper type name (unmangled)
    function: str                 # rendered function name
    arg_expr: str = ""            # marshal value
    var: str = ""                 # unmarshal result variable


@dataclass
class Loop(Op):
    """``for var in iterable: body`` (kinds: elements, bytes) or
    ``for _ in range(count): body`` (kind: range)."""

    kind: str
    body: List[Op]
    var: str = ""
    iterable: str = ""
    count_expr: str = ""


@dataclass
class ListLoop(Op):
    """The iterative-list form (paper footnote 5): a while-loop over a
    tail-recursive list, wire-identical to the recursive helper.  On
    the decode side a spelling that builds records leaves each node
    built in ``_node`` (``head_ops``) and ``_nxt`` (``node_ops``); the
    C stores the fields through ``head_exprs``/``field_exprs``."""

    kind: str                     # m | u
    tail_name: str = ""
    node_ops: List[Op] = field(default_factory=list)   # leading fields
    flag_ops: List[Op] = field(default_factory=list)   # presence word
    stop_ops: List[Op] = field(default_factory=list)   # tail==None arm
    next_ops: List[Op] = field(default_factory=list)   # tail!=None arm
    field_exprs: Tuple[str, ...] = ()                  # u: node fields
    flag_var: str = ""                                 # u: presence var
    head_ops: List[Op] = field(default_factory=list)   # u: first node
    head_exprs: Tuple[str, ...] = ()


@dataclass
class BranchArm:
    cond: Optional[str]           # None renders as else
    body: List[Op]


@dataclass
class Branch(Op):
    """if/elif/else over op bodies (optionals, unions, reply arms)."""

    arms: List[BranchArm]


@dataclass
class Raise(Op):
    """``raise Error(message)`` or ``raise expr``."""

    error: str = ""               # error class; empty → raise value_expr
    message_expr: str = ""        # expression producing the message
    literal: bool = True          # message_expr is a plain string literal
    value_expr: str = ""


@dataclass
class CheckEnd(Op):
    """``_chk_end(d, o)`` — reject trailing reply bytes."""


@dataclass
class Return(Op):
    """Function return.

    kind ``args``:   ``return (e0, e1,), o``   (request unmarshal)
    kind ``value``:  ``return expr, o``        (unmarshal helper)
    kind ``plain``:  ``return expr``           (reply success)
    kind ``bare``:   ``return``                (iterative marshal)
    """

    kind: str
    exprs: Tuple[str, ...] = ()


@dataclass
class MirFunction:
    """One lowered codec function."""

    name: str
    kind: str                     # m_req | u_req | m_rep_ok | m_rep_exc
                                  # | u_rep | m_helper | u_helper
    params: Tuple[str, ...]
    ops: List[Op]
    #: Extra module-level constants this function needs
    #: (name -> bytes), e.g. folded header templates.
    consts: Dict[str, bytes] = field(default_factory=dict)
    #: Chunks flushed while lowering (request marshal feeds metadata).
    chunks: int = 0
    atoms: int = 0
    #: The operation this belongs to, and the helper type name if any.
    operation: str = ""
    type_name: str = ""


@dataclass
class MirProgram:
    """Lowered program: codec functions in module emission order."""

    interface_name: str
    wire_name: str
    functions: List[MirFunction] = field(default_factory=list)
    #: Helper alias map from the out-of-line dedup pass:
    #: dropped function name -> surviving function name.
    aliases: Dict[str, str] = field(default_factory=dict)
    #: Pass pipeline report: pass name -> enabled?
    passes: Dict[str, bool] = field(default_factory=dict)


def walk_ops(ops):
    """Yield every op in *ops*, descending into structured bodies."""
    for op in ops:
        yield op
        if isinstance(op, (Loop, GetArrayRegion)):
            for inner in walk_ops(op.body):
                yield inner
        elif isinstance(op, Branch):
            for arm in op.arms:
                for inner in walk_ops(arm.body):
                    yield inner
        elif isinstance(op, ListLoop):
            for body in (op.node_ops, op.flag_ops, op.stop_ops,
                         op.next_ops, op.head_ops):
                for inner in walk_ops(body):
                    yield inner
        elif isinstance(op, ReplyErrorTail):
            for inner in walk_ops(op.ops):
                yield inner


def rewrite_calls(ops, aliases):
    """Rewrite CallOutOfLine targets through the *aliases* map."""
    for op in walk_ops(ops):
        if isinstance(op, CallOutOfLine) and op.function in aliases:
            op.function = aliases[op.function]


__all__ = [name for name in dir() if not name.startswith("_")]
