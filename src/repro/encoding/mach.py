"""Mach 3 typed-message layout (simplified).

Mach 3 IPC messages are self-describing: each data item is preceded by a
type descriptor (``mach_msg_type_t``) giving the item's type code, element
size in bits, and element count.  This module reproduces that structure in a
simplified but faithful shape: an 8-byte descriptor — ``u32 type_code |
size_bits << 16`` and ``u32 count`` — precedes every array, and message
payloads are little-endian (the paper's MIG host was a Pentium) with 4-byte
item alignment.

MIG itself can only express scalars and arrays of scalars; Flick's Mach 3
back end (like the paper's) also ships aggregates by flattening them into
the message body after an inline descriptor.
"""

from __future__ import annotations

from repro.errors import BackEndError
from repro.encoding.base import AtomCodec, WireFormat
from repro.mint.types import MintBoolean, MintChar, MintFloat, MintInteger

#: Mach type codes (subset of mach/message.h MACH_MSG_TYPE_*).
TYPE_BYTE = 9
TYPE_INTEGER_16 = 1
TYPE_INTEGER_32 = 2
TYPE_INTEGER_64 = 11
TYPE_CHAR = 8
TYPE_BOOLEAN = 0
TYPE_REAL_32 = 25
TYPE_REAL_64 = 26


class MachFormat(WireFormat):
    """Simplified Mach 3 typed-message layout."""

    name = "mach3"
    endian = "<"
    # Item boundaries are *usually* word aligned, but arrays of sub-word
    # scalars can end unaligned, so code generators may not assume it.
    universal_alignment = 1

    label = "Mach messages"
    int_codecs = {
        (8, True): AtomCodec("b", 1, 1, "int"),
        (8, False): AtomCodec("B", 1, 1, "int"),
        (16, True): AtomCodec("h", 2, 2, "int"),
        (16, False): AtomCodec("H", 2, 2, "int"),
        (32, True): AtomCodec("i", 4, 4, "int"),
        (32, False): AtomCodec("I", 4, 4, "int"),
        (64, True): AtomCodec("q", 8, 4, "int"),
        (64, False): AtomCodec("Q", 8, 4, "int"),
    }
    float_codecs = {
        32: AtomCodec("f", 4, 4, "float"),
        64: AtomCodec("d", 8, 4, "float"),
    }
    char_codec = AtomCodec("B", 1, 1, "char")
    bool_codec = AtomCodec("I", 4, 4, "bool")

    def array_header_size(self, array):
        # Typed messages carry an 8-byte descriptor before every array,
        # fixed-length or not.
        return 8

    def array_padding(self, array):
        # Items are 4-aligned; byte-grained arrays pad to the boundary.
        return 3

    def type_code(self, atom):
        """The MACH_MSG_TYPE_* code for an atom (used in descriptors)."""
        if isinstance(atom, MintInteger):
            return {8: TYPE_BYTE, 16: TYPE_INTEGER_16,
                    32: TYPE_INTEGER_32, 64: TYPE_INTEGER_64}[atom.bits]
        if isinstance(atom, MintFloat):
            return TYPE_REAL_32 if atom.bits == 32 else TYPE_REAL_64
        if isinstance(atom, MintChar):
            return TYPE_CHAR
        if isinstance(atom, MintBoolean):
            return TYPE_BOOLEAN
        raise BackEndError("no Mach type code for %r" % (atom,))

    def descriptor_word(self, atom):
        """First descriptor word: type code | size-in-bits << 16."""
        codec = self.atom_codec(atom)
        return self.type_code(atom) | (codec.size * 8) << 16
