"""Unit tests for source-file bookkeeping."""

import pytest

from repro.idl.source import SourceFile, SourceLocation


class TestSourceFile:
    def test_location_of_first_char(self):
        source = SourceFile("abc", "f.idl")
        assert source.location(0) == SourceLocation("f.idl", 1, 1)

    def test_location_after_newline(self):
        source = SourceFile("ab\ncd", "f.idl")
        assert source.location(3) == SourceLocation("f.idl", 2, 1)
        assert source.location(4) == SourceLocation("f.idl", 2, 2)

    def test_location_on_newline_char(self):
        source = SourceFile("ab\ncd", "f.idl")
        assert source.location(2).line == 1

    def test_negative_offset_rejected(self):
        source = SourceFile("abc")
        with pytest.raises(ValueError):
            source.location(-1)

    def test_empty_file(self):
        source = SourceFile("")
        assert source.location(0).line == 1

    def test_location_str(self):
        assert str(SourceLocation("m.idl", 3, 7)) == "m.idl:3:7"
