"""XDR: the External Data Representation (RFC 1832).

Layout rules: every datum occupies a multiple of 4 bytes, big endian.
Integers narrower than 32 bits, booleans, and standalone characters are
widened to 4 bytes (as rpcgen does).  ``string`` and ``opaque`` data are the
exception: their bytes are packed one per byte after a 4-byte length, then
padded with zeros to a 4-byte boundary.
"""

from __future__ import annotations

from repro.encoding.base import AtomCodec, WireFormat


class XdrFormat(WireFormat):
    """RFC 1832 XDR layout."""

    name = "xdr"
    universal_alignment = 4

    label = "XDR"
    int_codecs = {
        # Narrow integers widen to 4 bytes; 64-bit (hyper) uses 8.
        (8, True): AtomCodec("i", 4, 4, "int"),
        (8, False): AtomCodec("I", 4, 4, "int"),
        (16, True): AtomCodec("i", 4, 4, "int"),
        (16, False): AtomCodec("I", 4, 4, "int"),
        (32, True): AtomCodec("i", 4, 4, "int"),
        (32, False): AtomCodec("I", 4, 4, "int"),
        (64, True): AtomCodec("q", 8, 4, "int"),
        (64, False): AtomCodec("Q", 8, 4, "int"),
    }
    float_codecs = {
        32: AtomCodec("f", 4, 4, "float"),
        64: AtomCodec("d", 8, 4, "float"),
    }
    char_codec = AtomCodec("I", 4, 4, "char")
    bool_codec = AtomCodec("I", 4, 4, "bool")

    def packed_element_size(self, element):
        # string / opaque: one byte per element inside arrays.
        if self.is_bytes_element(element):
            return 1
        return None

    def array_padding(self, array):
        # Packed byte arrays pad to a 4-byte boundary; all other element
        # types already occupy 4-byte multiples.
        if self.packed_element_size(array.element) is not None:
            return 3
        return 0
