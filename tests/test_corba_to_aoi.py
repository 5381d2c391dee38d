"""Unit tests for CORBA AST -> AOI lowering."""

import pytest

from repro.errors import IdlSemanticError
from repro.aoi import (
    AoiArray,
    AoiEnum,
    AoiInteger,
    AoiNamedRef,
    AoiSequence,
    AoiString,
    AoiStruct,
    AoiUnion,
    Direction,
)
from repro import frontends


def corba_aoi(text):
    return frontends.get("corba").compile_frontend(text)


class TestScoping:
    def test_types_are_fully_qualified(self):
        root = corba_aoi(
            "module M { struct S { long v; }; };"
        )
        assert "M::S" in root.types

    def test_inner_scope_sees_outer(self):
        root = corba_aoi(
            "module M { struct S { long v; };"
            " module N { typedef S T; }; };"
        )
        assert root.types["M::N::T"] == AoiNamedRef("M::S")

    def test_inner_shadows_outer(self):
        root = corba_aoi(
            "struct S { long a; };"
            " module M { struct S { double b; }; typedef S T; };"
        )
        assert root.types["M::T"] == AoiNamedRef("M::S")

    def test_absolute_name_escapes_scope(self):
        root = corba_aoi(
            "struct S { long a; };"
            " module M { struct S { double b; }; typedef ::S T; };"
        )
        assert root.types["M::T"] == AoiNamedRef("S")

    def test_undefined_name_raises(self):
        with pytest.raises(IdlSemanticError):
            corba_aoi("typedef Nope T;")

    def test_redefinition_raises(self):
        with pytest.raises(IdlSemanticError):
            corba_aoi("struct S { long a; }; struct S { long b; };")

    def test_interface_scope_for_nested_types(self):
        root = corba_aoi(
            "interface I { struct S { long v; }; void f(in S s); };"
        )
        assert "I::S" in root.types
        interface = root.interface_named("I")
        assert interface.operations[0].parameters[0].type == AoiNamedRef("I::S")


class TestConstants:
    def test_arithmetic_folding(self):
        root = corba_aoi("const long K = 2 + 3 * 4;")
        assert root.constants["K"].value == 14

    def test_shift_or(self):
        root = corba_aoi("const long K = (1 << 8) | 0xF;")
        assert root.constants["K"].value == 271

    def test_integer_division(self):
        root = corba_aoi("const long K = 7 / 2;")
        assert root.constants["K"].value == 3

    def test_reference_to_earlier_constant(self):
        root = corba_aoi("const long A = 5; const long B = A * A;")
        assert root.constants["B"].value == 25

    def test_enum_member_usable_as_constant(self):
        root = corba_aoi(
            "enum E { X, Y, Z }; const long K = Z;"
        )
        assert root.constants["K"].value == 2

    def test_array_dimension_from_constant(self):
        root = corba_aoi(
            "const long N = 4; typedef long Arr[N * 2];"
        )
        assert root.types["Arr"] == AoiArray(AoiInteger(32, True), 8)


class TestTypeLowering:
    def test_enum_values_are_ordinal(self):
        root = corba_aoi("enum E { A, B, C };")
        enum = root.types["E"]
        assert isinstance(enum, AoiEnum)
        assert enum.members == (("A", 0), ("B", 1), ("C", 2))

    def test_bounded_string(self):
        root = corba_aoi("typedef string<16> Name;")
        assert root.types["Name"] == AoiString(16)

    def test_sequence_bound(self):
        root = corba_aoi("typedef sequence<long, 3> S;")
        assert root.types["S"] == AoiSequence(AoiInteger(32, True), 3)

    def test_multi_dimensional_array(self):
        root = corba_aoi("typedef long Grid[2][3];")
        grid = root.types["Grid"]
        assert grid.length == 2
        assert grid.element.length == 3

    def test_union_enum_labels_become_values(self):
        root = corba_aoi(
            "enum E { A, B };"
            " union U switch (E) { case A: long x; case B: double y; };"
        )
        union = root.types["U"]
        assert isinstance(union, AoiUnion)
        assert union.cases[0].labels == (0,)
        assert union.cases[1].labels == (1,)

    def test_struct_multi_declarators_expand(self):
        root = corba_aoi("struct P { long x, y; };")
        struct = root.types["P"]
        assert [f.name for f in struct.fields] == ["x", "y"]


class TestInterfaceLowering:
    def test_operation_request_code_is_name(self):
        root = corba_aoi("interface I { void f(); };")
        operation = root.interface_named("I").operations[0]
        assert operation.request_code == "f"

    def test_repository_id(self):
        root = corba_aoi("module M { interface I {}; };")
        assert root.interface_named("M::I").code == "IDL:M/I:1.0"

    def test_parameter_directions(self):
        root = corba_aoi(
            "interface I { void f(in long a, out long b, inout long c); };"
        )
        operation = root.interface_named("I").operations[0]
        assert [p.direction for p in operation.parameters] == [
            Direction.IN, Direction.OUT, Direction.INOUT,
        ]

    def test_raises_resolved_to_qualified_names(self):
        root = corba_aoi(
            "module M { exception E { long code; };"
            " interface I { void f() raises (E); }; };"
        )
        operation = root.interface_named("M::I").operations[0]
        assert operation.raises == ("M::E",)

    def test_attributes_preserved(self):
        root = corba_aoi(
            "interface I { readonly attribute long size; };"
        )
        attribute = root.interface_named("I").attributes[0]
        assert attribute.readonly
        assert attribute.type == AoiInteger(32, True)

    def test_inheritance_names_resolved(self):
        root = corba_aoi(
            "interface A {}; interface B : A {};"
        )
        assert root.interface_named("B").parents == ("A",)
