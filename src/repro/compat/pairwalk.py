"""One pairwise walk over two PRES_C messages.

:func:`pair_message` walks a *sender* message tree and a *receiver*
message tree in lockstep, node pair by node pair, and answers two
questions at once:

* **Is it compatible?**  Is every byte sequence a sender following its
  schema can produce decoded — to equivalent values — by the decoder
  the back ends generate from the receiver's schema?  The answer is a
  list of :class:`~repro.compat.verdict.Finding` values, each with the
  node path, the static byte offset and the reason; their worst is the
  verdict.  ``flick diff`` and ``flick bridge`` read these.
* **Can a gateway copy it?**  For a bridge, each value channel either
  compiles into copy segments (:class:`CopyFixed` and its kin, the
  gateway plan's instruction set) or is blocked, and the walk names the
  first node that blocks it and why: ``request.u: union``,
  ``request.c: named type against an inline one``.
  :func:`repro.gateway.build_plan` serves the segments and
  :func:`repro.gateway.predict_fused` reports the blockers.

The walk happens over PRES nodes rather than bare MINT because the
presentation pins down layout details MINT alone cannot (the paper's
char-array ambiguity: a ``MintArray(MintChar)`` presented as a string
carries a NUL under CDR, an element-wise char array does not), and
because the generated decoders enforce *presentation* bounds
(``UnmarshalError('... exceeds bound')``).  Every PRES node still carries
its MINT; byte sizes and alignments come from the wire format's atom
codecs, exactly as in :mod:`repro.mint.analysis`.

The diff is directional.  Asymmetries this encodes:

* widened bounds are compatible sender->receiver but breaking in reverse;
* added union arms are compatible only toward the schema that has them;
* appended trailing fields are tolerated only where the receiver's
  decoder ignores trailing bytes (request bodies; reply decoders call
  ``_chk_end`` and reject them) — controlled by ``tolerate_trailing``.

Static byte offsets are tracked while the preceding layout is fixed
(atoms, fixed arrays of atoms) and become ``None`` after the first
variable-size region; findings report the last known offset.

**Same-format mode** (``flick diff``) compares values and byte layout:
sizes, alignments and NUL conventions must agree.  **Transcoded mode**
(``receiver_format``): when sender and receiver speak *different* wire
formats, a gateway decodes the sender's message and re-encodes the
values, so only the value channel must line up — node kinds, field
arity, value ranges, bounds and union arm coverage.

**Copy segments** (transcoded mode, both formats big-endian).  XDR and
big-endian CDR agree exactly on 32-bit integers and floats and on fixed
and counted arrays of fixed-size elements (neither prefixes a fixed
array, both prefix a counted one with a 4-byte count): :class:`CopyFixed`
and :class:`CopyCounted` copy those whole.  A string or an octet
sequence is a :class:`CopyRun`, which rewrites CDR's NUL-counting count
and NUL against XDR's padding; a counted array of variable-size
elements is a :class:`CopyEach`.  XDR pads every byte run to 4 bytes,
CDR aligns the item after one instead, so a run fuses only where what
follows it starts on a 4-byte boundary in both formats (an
:class:`Align` realigns both sides).  Two named types fuse as their
definitions unless either recurses; a named type against an inline one,
a union, an optional, an exception, or an atom that is not one 4-byte
word on both sides blocks the channel.  The segments are data: each
states what it copies and what it refuses (exactly the frames the
ingress decoder refuses), and :func:`repro.gateway.plan.compile_copy`
prints a channel's segments as the one function that does it.

:func:`pair_bridge` pairs a bridge's operations by name and walks each
request ingress->egress and each reply egress->ingress; the bridge
verdict and the copy plan both read that one pairing.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.backend import make_backend
from repro.mint.analysis import StorageClass, analyze_storage, is_recursive
from repro.mint.types import MintFloat, MintInteger
from repro.pres import nodes as p
from repro.compat.verdict import Finding, Verdict, worst


# ----------------------------------------------------------------------
# Copy segments (the fused plan's instruction set: pure data, which
# repro.gateway.plan prints as one function per channel)
# ----------------------------------------------------------------------


class CopyFixed(NamedTuple):
    """Copy *nbytes* verbatim from the source body to the buffer.

    *aligned* is False when the region starts with bytes (a fixed octet
    array), which CDR does not align: such a region may not follow a
    byte run."""

    nbytes: int
    aligned: bool = True

    def __repr__(self):
        return "CopyFixed(%d)" % self.nbytes


class CopyCounted(NamedTuple):
    """Copy a counted array: 4-byte big-endian count, then
    ``count * elem_size`` element bytes, bound-checked before copying."""

    bound: Optional[int]
    elem_size: int

    def __repr__(self):
        return "CopyCounted(bound=%r, elem=%d)" % (
            self.bound, self.elem_size)


class CopyRun(NamedTuple):
    """Copy a count-prefixed byte run, a string or an octet sequence,
    rewriting what the two formats disagree on: a CDR string's count
    includes its NUL (*nul* 1), and a side's run ends on a 4-byte
    boundary (*pad* 1) where XDR pads every run and CDR aligns the item
    after one.  Both are ``(source, destination)`` pairs.

    It refuses what the ingress decoder refuses: a truncated count or
    run, a NUL-counting count of 0, a length over *bound*."""

    bound: Optional[int]
    nul: tuple
    pad: tuple

    def __repr__(self):
        return "CopyRun(bound=%r, nul=%d->%d, pad=%d->%d)" % (
            (self.bound,) + self.nul + self.pad)


class Align(NamedTuple):
    """Realign both sides to 4 bytes after a byte run, for an item CDR
    aligns: skip the source's padding, zero-pad the destination (an XDR
    side is aligned already)."""

    def __repr__(self):
        return "Align()"


class CopyEach(NamedTuple):
    """Copy a counted array of variable-size elements: the count,
    checked against *bound* and, at *min_size* bytes an element, against
    what is left (as the generated decoder checks it), then *segments*
    once per element."""

    bound: Optional[int]
    min_size: int
    segments: list

    def __repr__(self):
        return "CopyEach(bound=%r, min=%d, %r)" % (
            self.bound, self.min_size, self.segments)


def _bound(src, dst):
    """The smaller of two bounds, None meaning unbounded."""
    return min((b for b in (src.bound, dst.bound) if b is not None),
               default=None)


def _unaligned(segments):
    """Whether *segments* end after a byte run: CDR leaves its end where
    the run ends and aligns the item that follows."""
    last = segments[-1] if segments else None
    return (isinstance(last, CopyRun) and last.pad != (1, 1)) or (
        isinstance(last, CopyEach) and _unaligned(last.segments))


def _append(segments, segment):
    """Append *segment*, realigning after a byte run; False where the
    alignment rule forbids it: after a run comes an item both formats
    align to 4 bytes (not a fixed octet array)."""
    if _unaligned(segments):
        if isinstance(segment, CopyFixed) and not segment.aligned:
            return False
        segments.append(Align())
    segments.append(segment)
    return True


def _coalesce(segments):
    """Merge adjacent fixed copies, and fold an Align into the byte run
    before it: a run followed by an aligned item ends aligned."""
    out = []
    for segment in segments:
        last = out[-1] if out else None
        if isinstance(segment, CopyFixed) and isinstance(last, CopyFixed):
            out[-1] = CopyFixed(last.nbytes + segment.nbytes, last.aligned)
        elif isinstance(segment, Align) and isinstance(last, CopyRun):
            out[-1] = CopyRun(last.bound, last.nul, (1, 1))
        else:
            out.append(segment)
    return out


# ----------------------------------------------------------------------
# What the walk reports
# ----------------------------------------------------------------------


class Item(NamedTuple):
    """One value of a channel (an argument, a result) as the walk left
    it: *segments* copy it on its own, or *blocker* says why none do.
    *nbytes* is its sender-side size: the bounded maximum, or the fixed
    minimum when it is unbounded."""

    path: str
    pres: object
    segments: Optional[list]
    blocker: Optional[str]
    nbytes: int


class Channel(NamedTuple):
    """One value stream of a bridged message: the request, or one reply
    arm.  *segments* copy it whole, or *blocker* names the first node
    that keeps them from it."""

    items: tuple
    segments: Optional[list]
    blocker: Optional[str]


class MessagePair(NamedTuple):
    """A walked message pair.  *channels* (transcoded mode only) maps
    ``"request"``, or a reply arm's discriminator, to its Channel."""

    verdict: Verdict
    findings: tuple
    channels: dict


def pair_message(sender_pres, receiver_pres, sender_presc, receiver_presc,
                 wire_format, *, path="message", offset=0,
                 tolerate_trailing=False, receiver_format=None,
                 size_format=None):
    """Walk one message pair; returns a :class:`MessagePair`.

    ``sender_pres``/``receiver_pres`` are the message roots (a request
    PresStruct or a reply PresUnion); ``offset`` is the static offset of
    the body from the start of the message (the header template length).
    ``tolerate_trailing`` marks channels whose decoder ignores bytes past
    the last declared field (request bodies).

    ``receiver_format`` switches on transcoded mode: the receiver's
    decoder runs under its own wire format and a gateway re-encodes
    values in between, so the walk compares value capacity instead of
    byte layout and compiles each channel's copy segments.
    ``tolerate_trailing`` is ignored in transcoded mode — a gateway
    re-encode is positional, so extra sender fields have nowhere to go.
    Each channel item is sized under ``size_format`` (default: the
    sender's wire format).
    """
    walk = _Walk(sender_presc, receiver_presc, wire_format,
                 receiver_format, tolerate_trailing,
                 size_format or wire_format)
    walk.diff(sender_pres, receiver_pres, path, offset, root=True)
    findings = tuple(walk.findings)
    return MessagePair(worst(f.verdict for f in findings), findings,
                       walk.channels)


class _Walk:
    def __init__(self, sender_presc, receiver_presc, wire_format,
                 receiver_format, tolerate_trailing, size_format):
        self.s_presc = sender_presc
        self.r_presc = receiver_presc
        self.fmt = wire_format
        self.r_fmt = receiver_format or wire_format
        self.size_fmt = size_format
        self.transcoded = receiver_format is not None
        self.tolerate_trailing = tolerate_trailing and not self.transcoded
        self.findings = []
        self.channels = {}
        self._walking = set()
        #: The open item's copy segments; None outside a transcoded
        #: item, and once *blocker* says why it cannot be copied.
        self.segments = None
        self.blocker = None
        #: The sender bytes the open node spans under *size_fmt*:
        #: ``[fewest, most]``, most None when unbounded.  Sized as
        #: :func:`~repro.mint.analysis.analyze_storage` sizes MINT, but
        #: the walk knows a byte run from an element-wise char array, so
        #: a run costs one byte a char.
        self.size = [0, 0]

    # -- plumbing ------------------------------------------------------

    def note(self, verdict, path, offset, reason):
        self.findings.append(Finding(verdict, path, reason, offset))

    def block(self, path, cause):
        """No copy covers the open item: *cause* at *path*."""
        if self.segments is not None:
            self.segments, self.blocker = None, "%s: %s" % (path, cause)

    def grow(self, lo, hi):
        """The open node spans *lo* to *hi* (None: unbounded) more
        sender bytes."""
        size = self.size
        size[0] += lo
        size[1] = None if hi is None or size[1] is None else size[1] + hi

    def sized(self, walk, *args):
        """Run ``walk(*args)`` on a size of its own; returns that
        ``[fewest, most]``."""
        outer, self.size = self.size, [0, 0]
        walk(*args)
        size, self.size = self.size, outer
        return size

    def unpaired(self, sender):
        """Size a sender node the walk does not pair with one of the
        receiver's (a breaking change) from its MINT."""
        info = analyze_storage(sender.mint, self.size_fmt,
                               self.s_presc.mint_registry)
        self.grow(info.min_size, info.max_size)

    def emit(self, segment, path):
        if self.segments is not None \
                and not _append(self.segments, segment):
            self.block(path, "octets after a byte run")

    def diff(self, sender, receiver, path, offset, root=False):
        """Walk one node pair; returns the static offset after it."""
        s_name = sender.name if isinstance(sender, p.PresRef) else None
        r_name = receiver.name if isinstance(receiver, p.PresRef) else None
        if s_name is not None or r_name is not None:
            key = (s_name, r_name)
            if key in self._walking:
                # A reference cycle revisited: the pair already diffed on
                # first expansion; recursing again cannot add information.
                self.grow(0, None)
                return None
            if s_name is None or r_name is None:
                self.block(path, "named type against an inline one")
            elif self.segments is not None and (
                    is_recursive(sender.mint, self.s_presc.mint_registry)
                    or is_recursive(receiver.mint,
                                    self.r_presc.mint_registry)):
                self.block(path, "recursive type")
            self._walking.add(key)
            try:
                return self.diff(
                    self.s_presc.pres_registry[s_name] if s_name
                    else sender,
                    self.r_presc.pres_registry[r_name] if r_name
                    else receiver,
                    path, offset,
                )
            finally:
                self._walking.discard(key)
        handler = self._handler(sender, receiver)
        if handler is None:
            self.unpaired(sender)
            self.block(path, "%s against %s"
                       % (_kind(sender), _kind(receiver)))
            self.note(Verdict.BREAKING, path, offset,
                      "node kind changed: sender %s vs receiver %s"
                      % (_kind(sender), _kind(receiver)))
            return None
        return handler(sender, receiver, path, offset, root)

    def _handler(self, sender, receiver):
        kind = _HANDLERS.get(type(sender))
        if kind is None or kind != _HANDLERS.get(type(receiver)):
            return None
        return getattr(self, kind)

    def _advance_past(self, mint, offset):
        """Static offset after a sender region, or None if variable
        (as a counted array always is)."""
        if offset is None or getattr(mint, "is_fixed", True) is False:
            return None
        info = analyze_storage(mint, self.fmt, self.s_presc.mint_registry)
        if info.storage_class is StorageClass.FIXED \
                and info.min_size == info.max_size:
            return offset + info.max_size
        return None

    # -- channels ------------------------------------------------------

    def item(self, sender, receiver, path, offset):
        """Walk one channel item on a segment list of its own; returns
        ``(offset after it, Item)``."""
        self.segments, self.blocker = [], None
        if not self.fmt.endian == self.r_fmt.endian == ">":
            self.segments, self.blocker = None, "byte order"
        outer, self.size = self.size, [0, 0]
        offset = self.diff(sender, receiver, path, offset)
        size, self.size = self.size, outer
        item = Item(path, sender, self.segments, self.blocker,
                    _nbytes(size))
        self.segments = None
        return offset, item

    def channel(self, key, items, blocker=None):
        """Record channel *key*: its items' segments joined under the
        alignment rule, or the first blocker."""
        segments = []
        for item in items:
            if blocker is None and item.blocker is not None:
                blocker = item.blocker
            elif blocker is None and item.segments:
                if not _append(segments, item.segments[0]):
                    blocker = "%s: octets after a byte run" % item.path
                segments.extend(item.segments[1:])
        self.channels[key] = Channel(
            tuple(items), None if blocker else _coalesce(segments), blocker)

    def arm(self, label, sender, receiver, path, offset):
        """A reply arm pair at the message root: one channel, whose items
        are the fields of a success arm or the whole exception."""
        if isinstance(sender, p.PresStruct) \
                and isinstance(receiver, p.PresStruct):
            return self.struct(sender, receiver, path, offset, False,
                               channel=label)
        offset, item = self.item(sender, receiver, path, offset)
        self.channel(label, [item])
        return offset

    # -- leaves --------------------------------------------------------

    def void(self, sender, receiver, path, offset, root):
        return offset

    def atom(self, sender, receiver, path, offset, root):
        s_codec = self.fmt.atom_codec(sender.mint)
        r_codec = self.r_fmt.atom_codec(receiver.mint)
        if offset is not None:
            offset += -offset % s_codec.alignment
        after = None if offset is None else offset + s_codec.size
        # Worst-case alignment padding, as analyze_storage counts it.
        sized = self.size_fmt.atom_codec(sender.mint)
        self.grow(sized.size, sized.size + (
            sized.alignment - 1
            if sized.alignment > self.size_fmt.universal_alignment else 0))
        layout = (s_codec.format, s_codec.size, s_codec.alignment)
        same = layout == (r_codec.format, r_codec.size, r_codec.alignment)
        if same and layout[1:] == (4, 4):
            self.emit(CopyFixed(4), path)
        else:
            self.block(path, "atom is not one 4-byte word on both sides")
        bridge = self.transcoded
        if not bridge and not same:
            self.note(Verdict.BREAKING, path, offset,
                      "atom recoded: sender %s (%d bytes, align %d) vs "
                      "receiver %s (%d bytes, align %d) under %s"
                      % (layout + (r_codec.format, r_codec.size,
                                   r_codec.alignment, self.fmt.name)))
            return None
        kinds = (s_codec.conversion, r_codec.conversion)
        if kinds == ("bool", "int"):
            self.note(Verdict.DECODE_COMPATIBLE, path, offset,
                      "presented type widened bool -> int"
                      + (" across the bridge" if bridge
                         else "; layout unchanged"))
        elif kinds[0] != kinds[1]:
            self.note(Verdict.BREAKING, path, offset,
                      "presented atom kind changed (%s -> %s): %s"
                      % (kinds + ("the decoded value cannot be re-encoded "
                                  "on the other protocol" if bridge else
                                  "legal sender values misdecode or raise",)))
            return after
        if bridge:
            self._value_range(sender.mint, receiver.mint, path, offset)
        if isinstance(sender, p.PresEnum) and isinstance(receiver, p.PresEnum):
            lost = {value for _, value in sender.members} \
                - {value for _, value in receiver.members}
            if lost:
                self.note(Verdict.DECODE_COMPATIBLE, path, offset,
                          "enum members %s absent from %s; their ordinals "
                          "%s as raw integers"
                          % (sorted(lost), "the far side" if bridge
                             else "receiver",
                             "re-encode" if bridge else "decode"))
        return after

    def _value_range(self, s_mint, r_mint, path, offset):
        """Transcoded atoms: the gateway re-encodes the decoded value, so
        the receiver's range must hold every sender value."""
        if isinstance(s_mint, MintInteger) and isinstance(r_mint, MintInteger):
            (s_lo, s_hi), (r_lo, r_hi) = s_mint.range(), r_mint.range()
            if s_lo < r_lo or s_hi > r_hi:
                self.note(Verdict.BREAKING, path, offset,
                          "integer range narrowed across the bridge: sender "
                          "[%d, %d] exceeds receiver [%d, %d]; out-of-range "
                          "values fail to re-encode"
                          % (s_lo, s_hi, r_lo, r_hi))
            elif (s_lo, s_hi) != (r_lo, r_hi):
                self.note(Verdict.DECODE_COMPATIBLE, path, offset,
                          "integer range widened across the bridge: every "
                          "sender-legal value re-encodes")
        elif isinstance(s_mint, MintFloat) and isinstance(r_mint, MintFloat):
            bits = (s_mint.bits, r_mint.bits)
            if bits[0] > bits[1]:
                self.note(Verdict.BREAKING, path, offset,
                          "float narrowed %d -> %d bits across the bridge: "
                          "values beyond float32 range fail to re-encode"
                          % bits)
            elif bits[0] < bits[1]:
                self.note(Verdict.DECODE_COMPATIBLE, path, offset,
                          "float widened %d -> %d bits across the bridge"
                          % bits)

    # -- byte runs (strings / opaque) ----------------------------------

    def byte_run(self, sender, receiver, path, offset, root):
        s_kind, s_fixed, s_bound, s_nul = _byte_run_shape(sender, self.fmt)
        r_kind, r_fixed, r_bound, r_nul = _byte_run_shape(
            receiver, self.r_fmt)
        after = self._advance_past(sender.mint, offset)
        self.grow(*_run_size(sender.mint, self.size_fmt))
        if s_kind != r_kind:
            self.block(path, "%s against %s" % (s_kind, r_kind))
        elif s_fixed is not None or r_fixed is not None:
            # A fixed octet array: neither format prefixes it, nor (at a
            # multiple of 4) pads it.
            if s_fixed != r_fixed or s_fixed % 4:
                self.block(path, "fixed opaque not the same multiple of "
                                 "4 bytes on both sides")
            else:
                self.emit(CopyFixed(s_fixed, aligned=False), path)
        else:
            self.emit(CopyRun(
                _bound(sender, receiver), (s_nul, r_nul),
                (self.fmt.pads_byte_runs(sender.mint),
                 self.r_fmt.pads_byte_runs(receiver.mint))), path)
        bridge = self.transcoded
        if bridge and s_kind != r_kind:
            self.note(Verdict.BREAKING, path, offset,
                      "presented type changed %s -> %s: the gateway hands "
                      "the decoded %s to an encoder that packs %s"
                      % (s_kind, r_kind, s_kind, r_kind))
            return after
        if s_fixed is not None and r_fixed is not None:
            if s_fixed != r_fixed:
                self.note(Verdict.BREAKING, path, offset,
                          "fixed opaque length changed %d -> %d%s"
                          % (s_fixed, r_fixed, ": every decoded value has "
                             "the wrong arity for the far encoder" if bridge
                             else "; receiver rejects the mismatch"))
                return after if bridge else None
            return after
        if not bridge and (s_fixed is None) != (r_fixed is None):
            self.note(Verdict.BREAKING, path, offset,
                      "byte run changed between fixed (no length header) "
                      "and counted (4-byte length header)")
            return None
        if s_fixed is not None:  # fixed -> counted, across a bridge
            if r_bound is not None and s_fixed > r_bound:
                self.note(Verdict.BREAKING, path, offset,
                          "fixed opaque of %d bytes exceeds the far side's "
                          "bound %d" % (s_fixed, r_bound))
            else:
                self.note(Verdict.DECODE_COMPATIBLE, path, offset,
                          "fixed opaque re-encoded as counted (length %d "
                          "within bound %s)"
                          % (s_fixed, _bound_text(r_bound)))
            return after
        if r_fixed is not None:  # counted -> fixed, across a bridge
            self.note(Verdict.BREAKING, path, offset,
                      "counted byte run re-encoded as fixed opaque of %d "
                      "bytes: any other decoded length fails" % r_fixed)
            return after
        if not bridge and s_nul != r_nul:
            self.note(Verdict.BREAKING, path, offset,
                      "string <-> opaque under %s: the string carries a "
                      "NUL terminator the opaque layout lacks"
                      % self.fmt.name)
            return None
        if not bridge and s_kind != r_kind:
            self.note(Verdict.DECODE_COMPATIBLE, path, offset,
                      "presented type changed %s -> %s; byte layout "
                      "identical under %s" % (s_kind, r_kind, self.fmt.name))
        self._diff_bound(s_bound, r_bound, path, offset, "byte run")
        return after

    def _diff_bound(self, s_bound, r_bound, path, offset, what):
        """Compare declared maximum lengths, receiver-enforced."""
        if s_bound == r_bound:
            return
        texts = (what, _bound_text(s_bound), _bound_text(r_bound))
        if r_bound is None or (s_bound is not None and s_bound <= r_bound):
            self.note(Verdict.DECODE_COMPATIBLE, path, offset,
                      "%s bound widened %s -> %s: every sender-legal length "
                      "stays within the receiver's check" % texts)
        else:
            self.note(Verdict.BREAKING, path, offset,
                      "%s bound narrowed %s -> %s: the receiver's decoder "
                      "raises UnmarshalError beyond %s" % (texts + texts[2:]))

    # -- arrays --------------------------------------------------------

    def fixed_array(self, sender, receiver, path, offset, root):
        after = self._advance_past(sender.mint, offset)
        if sender.length != receiver.length:
            self.unpaired(sender)
            self.block(path, "array length %d against %d"
                       % (sender.length, receiver.length))
            self.note(Verdict.BREAKING, path, offset,
                      "fixed array length changed %d -> %d; every element "
                      "after the shorter length shifts"
                      % (sender.length, receiver.length))
            return None
        element_offset = offset
        header = self.fmt.array_header_size(sender.mint)
        if element_offset is not None and header:
            element_offset += -element_offset % \
                self.fmt.array_header_alignment(sender.mint)
            element_offset += header
        self._elements(sender, receiver, path, element_offset, False)
        return after

    def counted_array(self, sender, receiver, path, offset, root):
        self._diff_bound(sender.bound, receiver.bound, path, offset, "array")
        self._elements(sender, receiver, path,
                       self._element_offset(sender, offset), True)
        return self._advance_past(sender.mint, offset)

    def optional(self, sender, receiver, path, offset, root):
        self.block(path, "optional")
        self._array_of(sender, receiver, path + "*",
                       self._element_offset(sender, offset))
        return self._advance_past(sender.mint, offset)

    def _element_offset(self, sender, offset):
        if offset is None:
            return None
        offset += -offset % self.fmt.array_header_alignment(sender.mint)
        return offset + self.fmt.array_header_size(sender.mint)

    def _array_of(self, sender, receiver, path, offset):
        """Walk an array's element pair; the open node grows by the
        sender's array of them (an element-wise array has no trailer)."""
        lo, hi = self.sized(self.diff, sender.element, receiver.element,
                            path, offset)
        mint = sender.mint
        header = self.size_fmt.array_header_size(mint)
        self.grow(header + mint.min_length * lo,
                  None if hi is None or mint.max_length is None
                  else header + mint.max_length * hi)

    def _elements(self, sender, receiver, path, offset, counted):
        """Walk an array's element pair on a segment list of its own,
        then copy the array as one stride or element by element."""
        outer = self.segments
        if outer is not None:
            self.segments = []
        self._array_of(sender, receiver, path + "[*]", offset)
        element, self.segments = self.segments, outer
        if element is None:
            self.segments = None
            return
        element = _coalesce(element)
        if all(isinstance(s, CopyFixed) for s in element):
            # Fixed-size elements: one stride covers the whole array.
            stride = sum(s.nbytes for s in element)
            if counted and not stride:
                self.block(path, "array of empty elements")
            elif counted:
                self.emit(CopyCounted(_bound(sender, receiver), stride), path)
            elif stride:
                self.emit(CopyFixed(stride * sender.length,
                                    aligned=element[0].aligned), path)
            return
        if not counted:
            self.block(path, "fixed array of variable-size elements")
            return
        if _unaligned(element):  # the next element follows a run
            if not _append(element[-1:], element[0]):
                self.block(path, "octets after a byte run")
                return
            element.insert(0, Align())
        min_size = analyze_storage(sender.element.mint, self.fmt,
                                   self.s_presc.mint_registry).min_size
        self.emit(CopyEach(_bound(sender, receiver), max(min_size, 1),
                           element), path)

    # -- aggregates ----------------------------------------------------

    def struct(self, sender, receiver, path, offset, root, channel=None):
        """Slots pair positionally: field order *is* the wire order, and
        a rename does not move a byte.  With *channel* (a reply arm, or
        a transcoded request), each field pair is one item of it."""
        if root and self.transcoded:
            channel = "request"
        count = None
        if len(sender.fields) != len(receiver.fields):
            count = "%d fields against %d" % (len(sender.fields),
                                              len(receiver.fields))
        if isinstance(sender, p.PresException) \
                or isinstance(receiver, p.PresException):
            self.block(path, "exception")
        elif count:
            self.block(path, count)
        items = []
        for s_field, r_field in zip(sender.fields, receiver.fields):
            field_path = "%s.%s" % (path, s_field.name)
            if s_field.name != r_field.name:
                self.note(Verdict.WIRE_IDENTICAL, field_path, offset,
                          "field renamed %r -> %r (wire-transparent)"
                          % (s_field.name, r_field.name))
            if channel is None:
                offset = self.diff(s_field.pres, r_field.pres, field_path,
                                   offset)
            else:
                offset, item = self.item(s_field.pres, r_field.pres,
                                         field_path, offset)
                items.append(item)
        for r_field in receiver.fields[len(sender.fields):]:
            self.note(Verdict.BREAKING, "%s.%s" % (path, r_field.name),
                      offset,
                      "receiver expects field %r the sender never "
                      "marshals; its decoder reads past the sender's last "
                      "byte" % r_field.name)
            offset = None
        extra = sender.fields[len(receiver.fields):]
        if channel is not None:
            if count:  # an unpaired channel copies none of its items
                items = [item._replace(segments=None) for item in items] + [
                    Item("%s.%s" % (path, f.name), f.pres, None, count,
                         _nbytes(self.sized(self.unpaired, f.pres)))
                    for f in extra]
            self.channel(channel, items, count and "%s: %s" % (path, count))
        if not extra:
            return offset
        if channel is None:
            for s_field in extra:
                self.unpaired(s_field.pres)
        names = [s_field.name for s_field in extra]
        where = "%s.%s" % (path, names[0])
        if root and self.tolerate_trailing:
            self.note(Verdict.DECODE_COMPATIBLE, where, offset,
                      "sender appends trailing field(s) %s; the receiver's "
                      "request decoder stops after its last declared "
                      "argument and ignores trailing bytes" % names)
        else:
            self.note(Verdict.BREAKING, where, offset,
                      "sender marshals extra field(s) %s the receiver does "
                      "not expect; the receiver %s"
                      % (names, "rejects trailing reply bytes" if root
                         else "misreads every following byte"))
        return None

    # -- unions --------------------------------------------------------

    def union(self, sender, receiver, path, offset, root):
        """At the root of a transcoded reply, each arm the two sides
        share is one channel.  The union spans its discriminator and the
        fewest to the most bytes of any sender arm."""
        self.block(path, "union")
        # Nothing follows a message root, so only a nested union sizes
        # the offset after it.
        after = None if root else self._advance_past(sender.mint, offset)
        disc = self.diff(sender.discriminator, receiver.discriminator,
                         path + ".disc", offset)
        s_default = _default_arm(sender)
        r_default = _default_arm(receiver)
        r_by_label = {label: arm for arm in receiver.arms
                      for label in arm.labels}
        s_labels = set()
        sizes = []
        for arm in sender.arms:
            s_labels.update(arm.labels)
            for label in arm.labels:
                arm_path = "%s[case %r]" % (path, label)
                r_arm = r_by_label.get(label)
                if r_arm is not None and root and self.transcoded:
                    sizes.append(self.sized(self.arm, label, arm.pres,
                                            r_arm.pres, arm_path, disc))
                elif r_arm is not None:
                    sizes.append(self.sized(self.diff, arm.pres, r_arm.pres,
                                            arm_path, disc))
                elif r_default is not None:
                    self.note(Verdict.DECODE_COMPATIBLE, arm_path, disc,
                              "receiver routes discriminator %r through "
                              "its default arm" % (label,))
                    sizes.append(self.sized(self.diff, arm.pres,
                                            r_default.pres, arm_path, disc))
                else:
                    self.note(Verdict.BREAKING, arm_path, disc,
                              "receiver union has no arm and no default for "
                              "discriminator %r; its decoder raises "
                              "UnmarshalError" % (label,))
                    sizes.append(self.sized(self.unpaired, arm.pres))
        if s_default is not None and r_default is None:
            self.note(Verdict.BREAKING, path + "[default]", disc,
                      "sender keeps a default arm but the receiver union "
                      "has none: any unlisted discriminator the sender "
                      "emits is rejected (discriminator gap)")
            sizes.append(self.sized(self.unpaired, s_default.pres))
        elif s_default is not None:
            sizes.append(self.sized(self.diff, s_default.pres,
                                    r_default.pres, path + "[default]",
                                    disc))
            # Labels the receiver names explicitly but the sender routes
            # through its default: the payload must match the receiver's
            # explicit arm, not its default.
            for label, r_arm in sorted(r_by_label.items(),
                                       key=lambda item: repr(item[0])):
                if label in s_labels:
                    continue
                arm_path = "%s[case %r]" % (path, label)
                marker = len(self.findings)
                self.sized(self.diff, s_default.pres, r_arm.pres, arm_path,
                           disc)
                if len(self.findings) == marker:
                    self.note(Verdict.DECODE_COMPATIBLE, arm_path, disc,
                              "receiver adds an explicit arm for %r (the "
                              "sender reaches it through its default arm "
                              "with an identical payload)" % (label,))
        else:
            added = sorted((label for label in r_by_label
                            if label not in s_labels), key=repr)
            if added:
                self.note(Verdict.DECODE_COMPATIBLE, path, disc,
                          "receiver adds union arm(s) for %s the sender "
                          "never produces" % added)
        if sizes:
            self.grow(min(lo for lo, _ in sizes),
                      None if any(hi is None for _, hi in sizes)
                      else max(hi for _, hi in sizes))
        return after


#: PRES node type -> the walk's handler; two nodes pair when theirs agree.
_HANDLERS = {
    p.PresVoid: "void", p.PresDirect: "atom", p.PresEnum: "atom",
    p.PresString: "byte_run", p.PresBytes: "byte_run",
    p.PresFixedArray: "fixed_array", p.PresCountedArray: "counted_array",
    p.PresOptPtr: "optional", p.PresStruct: "struct",
    p.PresException: "struct", p.PresUnion: "union",
}


def _byte_run_shape(pres, fmt):
    """(kind, fixed_length, bound, nul) describing a byte run."""
    if isinstance(pres, p.PresString):
        return ("str", None, pres.bound,
                1 if fmt.string_nul_terminated else 0)
    return ("bytes", pres.fixed_length, pres.bound, 0)


def _run_size(mint, fmt):
    """``(fewest, most)`` bytes of a byte run under *fmt*: its header
    and one byte a char, then at its bound the format's exact padding
    (XDR) or its NUL (CDR)."""
    header = fmt.array_header_size(mint)
    if mint.max_length is None:
        return header + mint.min_length, None
    data = mint.max_length
    return header + mint.min_length, header + data + (
        -data % 4 if fmt.pads_byte_runs(mint) else fmt.array_padding(mint))


def _nbytes(size):
    """An item's size: its most bytes, or its fewest when unbounded."""
    return size[0] if size[1] is None else size[1]


def _default_arm(union):
    for arm in union.arms:
        if arm.is_default:
            return arm
    return None


def _bound_text(bound):
    return "unbounded" if bound is None else str(bound)


def _kind(pres):
    return type(pres).__name__.replace("Pres", "").lower()


# ----------------------------------------------------------------------
# A bridge's operations, paired once
# ----------------------------------------------------------------------


def unknown_op_text(backend):
    """How a *backend*'s servers answer an operation they do not have."""
    code = getattr(backend, "unknown_op_code", None)
    if code == "proc_unavail":
        return "PROC_UNAVAIL"
    if code == "bad_operation":
        return "CORBA::BAD_OPERATION"
    return "as unknown-operation errors"


def pair_stubs(a_presc, b_presc):
    """``(name, a stub, b stub)`` for every operation either side has,
    paired by name, *a*'s first; the side that lacks one gives None."""
    others = {stub.operation_name: stub for stub in b_presc.stubs}
    for stub in a_presc.stubs:
        yield stub.operation_name, stub, others.pop(stub.operation_name,
                                                    None)
    for name, other in others.items():
        yield name, None, other


class OpPair(NamedTuple):
    """One operation of a bridge: the ingress and egress stubs (None on
    the side that lacks it), the operation-level findings, and the
    walked request (ingress -> egress) and reply (egress -> ingress)."""

    name: str
    stub: object
    other: object
    findings: tuple
    request: Optional[MessagePair] = None
    reply: Optional[MessagePair] = None

    @property
    def bridged(self):
        """Both sides serve it and agree on whether it replies."""
        return self.request is not None \
            and self.stub.oneway == self.other.oneway


class BridgePairing(NamedTuple):
    """Every operation of a bridge, paired by name and walked."""

    ingress: object                 # the ingress back end
    egress: object                  # the egress back end
    ingress_presc: object
    egress_presc: object
    ops: dict                       # name -> OpPair


def pair_bridge(ingress_result, egress_result):
    """Pair the operations of a bridge from *ingress_result* to
    *egress_result* (compile results, see :func:`repro.api.compile`)
    and walk each one's messages; returns a :class:`BridgePairing`.
    Both directions size their items under the ingress wire format."""
    ingress = make_backend(ingress_result.stubs.backend_name)
    egress = make_backend(egress_result.stubs.backend_name)
    in_presc, eg_presc = ingress_result.presc, egress_result.presc
    ops = {}
    for name, stub, other in pair_stubs(in_presc, eg_presc):
        if other is None:
            ops[name] = OpPair(name, stub, None, (Finding(
                Verdict.BREAKING, name,
                "operation absent upstream: ingress callers are "
                "answered %s" % unknown_op_text(ingress)),))
            continue
        if stub is None:
            ops[name] = OpPair(name, None, other, (Finding(
                Verdict.DECODE_COMPATIBLE, name,
                "operation exists only upstream: unreachable through "
                "this bridge"),))
            continue
        findings = ()
        if stub.oneway != other.oneway:
            findings = (Finding(
                Verdict.BREAKING, name,
                "oneway on %s side only: the gateway cannot invent or "
                "swallow a reply"
                % ("the ingress" if stub.oneway else "the egress")),)
        request = pair_message(
            stub.request_pres, other.request_pres, in_presc, eg_presc,
            ingress.wire_format, receiver_format=egress.wire_format,
            path="request",
            offset=len(ingress.request_header(in_presc, stub).template))
        reply = None
        if not stub.oneway and not other.oneway:
            reply = pair_message(
                other.reply_pres, stub.reply_pres, eg_presc, in_presc,
                egress.wire_format, receiver_format=ingress.wire_format,
                size_format=ingress.wire_format, path="reply",
                offset=len(egress.reply_header(eg_presc, other).template))
        ops[name] = OpPair(name, stub, other, findings, request, reply)
    return BridgePairing(ingress, egress, in_presc, eg_presc, ops)
