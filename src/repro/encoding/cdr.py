"""CDR: CORBA's Common Data Representation, carried by IIOP (GIOP 1.x).

Layout rules: primitive types are naturally aligned at their size (2-, 4-,
8-byte boundaries) relative to the start of the message; chars, octets, and
booleans occupy one byte; strings are a 4-byte length (counting a mandatory
terminating NUL) followed by the bytes and the NUL; sequences are a 4-byte
element count followed by the elements.  Byte order is sender-chosen and
flagged in the GIOP header, so the format is instantiated in both
endiannesses.
"""

from __future__ import annotations

from repro.encoding.base import AtomCodec, WireFormat
from repro.mint.types import MintChar


class CdrFormat(WireFormat):
    """GIOP 1.0 CDR layout in one chosen byte order."""

    string_nul_terminated = True

    label = "CDR"
    int_codecs = {
        (8, True): AtomCodec("b", 1, 1, "int"),
        (8, False): AtomCodec("B", 1, 1, "int"),
        (16, True): AtomCodec("h", 2, 2, "int"),
        (16, False): AtomCodec("H", 2, 2, "int"),
        (32, True): AtomCodec("i", 4, 4, "int"),
        (32, False): AtomCodec("I", 4, 4, "int"),
        (64, True): AtomCodec("q", 8, 8, "int"),
        (64, False): AtomCodec("Q", 8, 8, "int"),
    }
    float_codecs = {
        32: AtomCodec("f", 4, 4, "float"),
        64: AtomCodec("d", 8, 8, "float"),
    }
    char_codec = AtomCodec("B", 1, 1, "char")
    bool_codec = AtomCodec("B", 1, 1, "bool")

    def __init__(self, little_endian=False):
        self.little_endian = little_endian
        self.endian = "<" if little_endian else ">"
        self.name = "cdr-le" if little_endian else "cdr-be"

    def array_padding(self, array):
        # CDR strings append a NUL terminator (not padding, but it is
        # trailing space the storage analysis must account for).  Octet
        # sequences carry no terminator.
        if isinstance(array.element, MintChar):
            return 1
        return 0
