"""Fluke kernel IPC message layout.

Fluke IPC (paper section 3.2, "Specialized Transports") transfers the first
several words of a message in machine registers; the rest travels through a
buffer.  The encoding itself is therefore as lean as possible: packed
little-endian data with no alignment padding at all — the kernel neither
inspects nor converts the payload, and sender and receiver are the same
machine.  The register-window behaviour is modelled by the Fluke IPC
transport (:mod:`repro.runtime.flukeipc`), which peels the first
``REGISTER_WORDS`` words off the encoded message.
"""

from __future__ import annotations

from repro.encoding.base import AtomCodec, WireFormat

#: Words carried in registers by the simulated Fluke kernel path.
REGISTER_WORDS = 8


class FlukeFormat(WireFormat):
    """Packed little-endian layout for same-host Fluke IPC."""

    name = "fluke"
    endian = "<"

    label = "Fluke IPC"
    int_codecs = {
        (8, True): AtomCodec("b", 1, 1, "int"),
        (8, False): AtomCodec("B", 1, 1, "int"),
        (16, True): AtomCodec("h", 2, 1, "int"),
        (16, False): AtomCodec("H", 2, 1, "int"),
        (32, True): AtomCodec("i", 4, 1, "int"),
        (32, False): AtomCodec("I", 4, 1, "int"),
        (64, True): AtomCodec("q", 8, 1, "int"),
        (64, False): AtomCodec("Q", 8, 1, "int"),
    }
    float_codecs = {
        32: AtomCodec("f", 4, 1, "float"),
        64: AtomCodec("d", 8, 1, "float"),
    }
    char_codec = AtomCodec("B", 1, 1, "char")
    bool_codec = AtomCodec("B", 1, 1, "bool")

    def array_header_alignment(self, array):
        # Fluke payloads are fully packed; headers are not aligned either.
        return 1

