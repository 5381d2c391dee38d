"""Unit tests for wire formats and the buffer runtime."""

import pytest

from repro.errors import BackEndError, UnmarshalError
from repro.encoding import (
    CDR_BE,
    CDR_LE,
    FLUKE,
    MACH,
    XDR,
    MarshalBuffer,
    ReadCursor,
)
from repro.mint.types import (
    MintArray,
    MintBoolean,
    MintChar,
    MintFloat,
    MintInteger,
)


class TestMarshalBuffer:
    def test_reserve_returns_sequential_offsets(self):
        buffer = MarshalBuffer(capacity=16)
        assert buffer.reserve(4) == 0
        assert buffer.reserve(8) == 4
        assert buffer.length == 12

    def test_growth(self):
        buffer = MarshalBuffer(capacity=4)
        buffer.reserve(100)
        assert len(buffer.data) >= 100
        assert buffer.length == 100

    def test_growth_is_geometric(self):
        buffer = MarshalBuffer(capacity=8)
        for _ in range(100):
            buffer.reserve(8)
        assert buffer.length == 800

    def test_reset_keeps_capacity(self):
        buffer = MarshalBuffer(capacity=8)
        buffer.reserve(100)
        capacity = len(buffer.data)
        buffer.reset()
        assert buffer.length == 0
        assert len(buffer.data) == capacity

    def test_getvalue_is_immutable_prefix(self):
        buffer = MarshalBuffer()
        offset = buffer.reserve(3)
        buffer.data[offset : offset + 3] = b"abc"
        assert buffer.getvalue() == b"abc"

    def test_view_is_zero_copy(self):
        buffer = MarshalBuffer()
        buffer.reserve(2)
        view = buffer.view()
        buffer.data[0] = 0x41
        assert bytes(view) == b"A\x00"

    def test_len(self):
        buffer = MarshalBuffer()
        buffer.reserve(7)
        assert len(buffer) == 7


class TestReadCursor:
    def test_advance_and_take(self):
        cursor = ReadCursor(b"abcdef")
        assert cursor.take(2) == b"ab"
        assert cursor.advance(1) == 2
        assert cursor.take(3) == b"def"

    def test_truncation_raises(self):
        cursor = ReadCursor(b"ab")
        with pytest.raises(UnmarshalError):
            cursor.take(3)

    def test_align(self):
        cursor = ReadCursor(b"\0" * 16, offset=3)
        cursor.align(4)
        assert cursor.offset == 4
        cursor.align(4)
        assert cursor.offset == 4


class TestXdrLayout:
    def test_everything_is_four_aligned(self):
        for atom in (MintInteger(8, False), MintInteger(16, True),
                     MintInteger(32, True), MintChar(), MintBoolean()):
            assert XDR.atom_size(atom) == 4
            assert XDR.atom_alignment(atom) == 4

    def test_hyper_is_eight_bytes(self):
        assert XDR.atom_size(MintInteger(64, True)) == 8
        assert XDR.atom_alignment(MintInteger(64, True)) == 4

    def test_packed_bytes_in_arrays(self):
        assert XDR.packed_element_size(MintChar()) == 1
        assert XDR.packed_element_size(MintInteger(8, False)) == 1
        assert XDR.packed_element_size(MintInteger(32, True)) is None

    def test_byte_runs_pad(self):
        string_mint = MintArray(MintChar(), 0, None)
        assert XDR.pads_byte_runs(string_mint)

    def test_int_arrays_do_not_pad(self):
        ints = MintArray(MintInteger(32, True), 0, None)
        assert not XDR.pads_byte_runs(ints)

    def test_big_endian(self):
        buffer = MarshalBuffer()
        XDR.pack_atom(buffer, MintInteger(32, False), 0x01020304)
        assert buffer.getvalue() == b"\x01\x02\x03\x04"

    def test_char_widens(self):
        buffer = MarshalBuffer()
        XDR.pack_atom(buffer, MintChar(), "A")
        assert buffer.getvalue() == b"\x00\x00\x00\x41"

    def test_bool_widens(self):
        buffer = MarshalBuffer()
        XDR.pack_atom(buffer, MintBoolean(), True)
        assert buffer.getvalue() == b"\x00\x00\x00\x01"


class TestCdrLayout:
    def test_natural_alignment(self):
        assert CDR_BE.atom_alignment(MintInteger(16, True)) == 2
        assert CDR_BE.atom_alignment(MintInteger(64, True)) == 8
        assert CDR_BE.atom_alignment(MintFloat(64)) == 8

    def test_single_byte_types(self):
        assert CDR_BE.atom_size(MintChar()) == 1
        assert CDR_BE.atom_size(MintBoolean()) == 1
        assert CDR_BE.atom_size(MintInteger(8, False)) == 1

    def test_endianness_pair(self):
        be, le = MarshalBuffer(), MarshalBuffer()
        CDR_BE.pack_atom(be, MintInteger(32, False), 1)
        CDR_LE.pack_atom(le, MintInteger(32, False), 1)
        assert be.getvalue() == b"\x00\x00\x00\x01"
        assert le.getvalue() == b"\x01\x00\x00\x00"

    def test_alignment_inserted_and_zeroed(self):
        buffer = MarshalBuffer()
        CDR_BE.pack_atom(buffer, MintInteger(8, False), 0xFF)
        CDR_BE.pack_atom(buffer, MintInteger(32, False), 1)
        assert buffer.getvalue() == b"\xff\x00\x00\x00\x00\x00\x00\x01"

    def test_string_terminator_flag(self):
        assert CDR_BE.string_nul_terminated
        assert not XDR.string_nul_terminated

    def test_strings_pad_for_nul_only(self):
        string_mint = MintArray(MintChar(), 0, None)
        octets_mint = MintArray(MintInteger(8, False), 0, None)
        assert CDR_BE.array_padding(string_mint) == 1
        assert CDR_BE.array_padding(octets_mint) == 0


class TestMachLayout:
    def test_arrays_have_descriptors(self):
        array = MintArray(MintInteger(32, True), 4, 4)
        assert MACH.array_header_size(array) == 8

    def test_descriptor_word_encodes_size_bits(self):
        word = MACH.descriptor_word(MintInteger(32, True))
        assert (word >> 16) == 32
        assert (word & 0xFFFF) == 2  # MACH_MSG_TYPE_INTEGER_32

    def test_type_codes(self):
        assert MACH.type_code(MintChar()) == 8
        assert MACH.type_code(MintBoolean()) == 0
        assert MACH.type_code(MintFloat(64)) == 26

    def test_little_endian(self):
        buffer = MarshalBuffer()
        MACH.pack_atom(buffer, MintInteger(32, False), 1)
        assert buffer.getvalue() == b"\x01\x00\x00\x00"


class TestFlukeLayout:
    def test_fully_packed(self):
        for atom in (MintInteger(16, True), MintInteger(32, True),
                     MintInteger(64, False), MintFloat(64)):
            assert FLUKE.atom_alignment(atom) == 1

    def test_no_array_padding(self):
        array = MintArray(MintChar(), 0, None)
        assert FLUKE.array_padding(array) == 0

    def test_header_unaligned(self):
        array = MintArray(MintInteger(32, True), 0, None)
        assert FLUKE.array_header_alignment(array) == 1


class TestErrors:
    def test_unknown_width_rejected(self):
        with pytest.raises(BackEndError):
            XDR.atom_codec(MintInteger(128, True))

    def test_non_atom_rejected(self):
        with pytest.raises(BackEndError):
            XDR.atom_codec(MintArray(MintChar(), 0, None))

    @pytest.mark.parametrize("fmt, label", [
        (XDR, "XDR"), (CDR_BE, "CDR"), (CDR_LE, "CDR"),
        (MACH, "Mach messages"), (FLUKE, "Fluke IPC")])
    def test_refusals_name_the_format(self, fmt, label):
        with pytest.raises(BackEndError) as refused:
            fmt.atom_codec(MintInteger(128, True))
        assert str(refused.value) == \
            "%s cannot encode a 128-bit integer" % label
        with pytest.raises(BackEndError) as refused:
            fmt.atom_codec(MintFloat(16))
        assert str(refused.value) == "%s cannot encode a 16-bit float" % label

    def test_roundtrip_unpack(self):
        buffer = MarshalBuffer()
        for fmt in (XDR, CDR_BE, CDR_LE, MACH, FLUKE):
            buffer.reset()
            fmt.pack_atom(buffer, MintInteger(64, True), -123456789)
            cursor = ReadCursor(buffer.getvalue())
            assert fmt.unpack_atom(cursor, MintInteger(64, True)) == -123456789
