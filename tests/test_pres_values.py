"""Tests for presented-value helpers and the interpretive codec errors."""

import pytest

from repro import frontends
from tests.conftest import present
from repro.errors import MarshalError, UnmarshalError
from repro.encoding import XDR, MarshalBuffer
from repro.pres import InterpretiveCodec
from repro.pres.values import (
    get_field,
    make_union,
    normalize,
    record_class,
    union_parts,
)


Point = record_class("Point", ("x", "y"))


class TestRecord:
    def test_positional_and_keyword_init(self):
        assert Point(1, 2) == Point(x=1, y=2)

    def test_too_many_args(self):
        with pytest.raises(TypeError):
            Point(1, 2, 3)

    def test_unknown_keyword(self):
        with pytest.raises(TypeError):
            Point(z=1)

    def test_equality_with_other_record_type(self):
        Other = record_class("Other", ("a",))

        assert Point(1, 2) != Other(1)

    def test_to_dict(self):
        assert normalize(Point(1, 2)) == {"x": 1, "y": 2}


class TestHelpers:
    def test_get_field_record(self):
        assert get_field(Point(1, 2), "y") == 2

    def test_get_field_dict(self):
        assert get_field({"x": 5}, "x") == 5

    def test_get_field_missing_dict_key(self):
        with pytest.raises(MarshalError):
            get_field({}, "x")

    def test_get_field_missing_attr(self):
        with pytest.raises(MarshalError):
            get_field(Point(1, 2), "z")

    def test_union_parts(self):
        assert union_parts(make_union(1, "a")) == (1, "a")

    def test_union_parts_rejects_non_pairs(self):
        with pytest.raises(MarshalError):
            union_parts(5)

    def test_normalize_nested(self):
        value = [Point(1, 2), {"k": Point(3, 4)}, (0, Point(5, 6))]
        assert normalize(value) == [
            {"x": 1, "y": 2},
            {"k": {"x": 3, "y": 4}},
            (0, {"x": 5, "y": 6}),
        ]

    def test_normalize_exception(self):
        from repro.errors import FlickUserException

        class Bad(FlickUserException):
            _fields = ("why",)

            def __init__(self, why):
                FlickUserException.__init__(self, "Bad")
                self.why = why

        assert normalize(Bad("x")) == {"_exception": "Bad", "why": "x"}


class TestInterpCodecErrors:
    @pytest.fixture(scope="class")
    def presc(self):
        root = frontends.get("corba").compile_frontend(
            "interface I { void f(in string<4> s,"
            " in sequence<long, 2> xs); };")
        return present(root, "I")

    def codec(self, presc):
        return InterpretiveCodec(
            XDR, presc.pres_registry, presc.mint_registry
        )

    def test_string_over_bound_rejected(self, presc):
        stub = presc.stub_named("f")
        with pytest.raises(MarshalError):
            self.codec(presc).encode(
                stub.request_pres, {"s": "toolong", "xs": []}
            )

    def test_sequence_over_bound_rejected(self, presc):
        stub = presc.stub_named("f")
        with pytest.raises(MarshalError):
            self.codec(presc).encode(
                stub.request_pres, {"s": "ok", "xs": [1, 2, 3]}
            )

    def test_truncated_decode_rejected(self, presc):
        stub = presc.stub_named("f")
        codec = self.codec(presc)
        buffer = codec.encode(stub.request_pres, {"s": "ok", "xs": [1]})
        data = buffer.getvalue()[:-2]
        with pytest.raises(UnmarshalError):
            codec.decode(stub.request_pres, data)

    def test_received_over_bound_rejected(self, presc):
        import struct

        stub = presc.stub_named("f")
        codec = self.codec(presc)
        buffer = codec.encode(stub.request_pres, {"s": "ok", "xs": [1]})
        data = bytearray(buffer.getvalue())
        # Rewrite the string length word to exceed the bound.
        struct.pack_into(">I", data, 0, 4001)
        with pytest.raises(UnmarshalError):
            codec.decode(stub.request_pres, bytes(data))
