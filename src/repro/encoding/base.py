"""The wire-format abstraction.

A :class:`WireFormat` captures everything the MINT analyses and the back
ends need to know about one on-the-wire encoding: per-atom byte layouts
(:class:`AtomCodec`), array length headers, packing of byte-grained
elements, and trailing padding.  Concrete formats — XDR, CDR, Mach typed
messages, Fluke IPC — subclass it in sibling modules.

The split mirrors the paper's representation chain (section 2.3): a back end
associates MINT nodes with *encoded types*; this module is where the encoded
types live.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import BackEndError
from repro.mint.types import MintBoolean, MintChar, MintFloat, MintInteger


@dataclass(frozen=True)
class AtomCodec:
    """How one atomic MINT type is laid out by a wire format.

    Attributes:
        format: the :mod:`struct` conversion character (without byte order).
        size: encoded size in bytes.
        alignment: required alignment of the encoded datum.
        conversion: how Python values map onto the packed value — one of
            ``"int"``, ``"float"``, ``"bool"`` (packed as 0/1 int), or
            ``"char"`` (a one-character ``str`` packed via ``ord``).
    """

    format: str
    size: int
    alignment: int
    conversion: str

    def pack_value(self, value):
        """Convert a presented Python value to the packable value."""
        if self.conversion == "char":
            return ord(value)
        if self.conversion == "bool":
            return 1 if value else 0
        return value

    def unpack_value(self, raw):
        """Convert an unpacked value back to the presented Python value."""
        if self.conversion == "char":
            return chr(raw)
        if self.conversion == "bool":
            return bool(raw)
        return raw


class WireFormat:
    """Byte-layout rules for one message encoding.

    Subclasses define :attr:`name`, :attr:`endian` (a :mod:`struct` byte
    order prefix) and their atom codecs as data — :attr:`int_codecs`,
    :attr:`float_codecs`, :attr:`char_codec`, :attr:`bool_codec` and the
    :attr:`label` their refusals name; the array rules have defaults
    matching the common 4-byte-count convention.
    """

    #: Display / registry name.
    name = "abstract"
    #: Who refuses an atom the tables lack: "XDR cannot encode ...".
    label = "abstract"
    #: ``(bits, signed)`` -> :class:`AtomCodec` for integers.
    int_codecs = {}
    #: ``bits`` -> :class:`AtomCodec` for floats.
    float_codecs = {}
    char_codec = None
    bool_codec = None
    #: struct byte-order prefix: ">" (big endian) or "<" (little endian).
    endian = ">"
    #: True if encoded strings carry a terminating NUL (CDR does).
    string_nul_terminated = False
    #: Alignment guaranteed at every item boundary regardless of preceding
    #: data (XDR pads everything to 4; CDR guarantees nothing after a
    #: string).  Code generators use this to elide dynamic alignment.
    universal_alignment = 1

    def atom_codec(self, atom):
        """Return the :class:`AtomCodec` for an atomic MINT node."""
        try:
            if isinstance(atom, MintInteger):
                return self.int_codecs[atom.bits, atom.signed]
            if isinstance(atom, MintFloat):
                return self.float_codecs[atom.bits]
        except KeyError:
            kind = "integer" if isinstance(atom, MintInteger) else "float"
            raise BackEndError("%s cannot encode a %d-bit %s"
                               % (self.label, atom.bits, kind)) from None
        if isinstance(atom, MintChar):
            return self.char_codec
        if isinstance(atom, MintBoolean):
            return self.bool_codec
        raise BackEndError("not an atomic MINT type: %r" % (atom,))

    # -- sizes used by the MINT storage analysis -----------------------

    def atom_size(self, atom):
        return self.atom_codec(atom).size

    def atom_alignment(self, atom):
        return self.atom_codec(atom).alignment

    def array_header_size(self, array):
        """Bytes of length header preceding the elements (0 if none)."""
        return 0 if array.is_fixed else 4

    def array_header_alignment(self, array):
        return 4

    def array_padding(self, array):
        """Worst-case padding after the elements."""
        return 0

    def packed_element_size(self, element):
        """Per-element size when the format packs this element type tighter
        inside arrays than standalone, else None.

        XDR is the classic case: a standalone char occupies 4 bytes but
        string/opaque bytes are packed one per byte.
        """
        return None

    def pads_byte_runs(self, array):
        """True if byte-grained array data is padded to a 4-byte boundary
        after the elements (XDR strings/opaque; Mach in-line byte runs)."""
        if not self.array_padding(array):
            return False
        return (
            self.packed_element_size(array.element) is not None
            or self.array_header_size(array) == 8
        )

    # -- helpers used by code generators --------------------------------

    def is_bytes_element(self, element):
        """True if arrays of *element* are presented as str/bytes and can be
        bulk-copied (the memcpy optimization's validity condition: the
        encoded and presented layouts are identical byte strings)."""
        if isinstance(element, MintChar):
            return True
        return (
            isinstance(element, MintInteger)
            and element.bits == 8
            and not element.signed
        )

    def pack_atom(self, buffer, atom, value):
        """Reference (unoptimized) single-atom encode, used by baselines."""
        codec = self.atom_codec(atom)
        padding = -buffer.length % codec.alignment
        offset = buffer.reserve(codec.size + padding) + padding
        if padding:
            # Zero alignment gaps so messages are byte-deterministic even
            # when buffers are reused.
            buffer.data[offset - padding : offset] = b"\0" * padding
        struct.pack_into(
            self.endian + codec.format, buffer.data, offset,
            codec.pack_value(value),
        )

    def unpack_atom(self, cursor, atom):
        """Reference single-atom decode, used by baselines."""
        codec = self.atom_codec(atom)
        cursor.align(codec.alignment)
        offset = cursor.advance(codec.size)
        (raw,) = struct.unpack_from(
            self.endian + codec.format, cursor.data, offset
        )
        return codec.unpack_value(raw)

    def __repr__(self):
        return "<WireFormat %s>" % self.name
