"""Unit tests for the ONC RPC (XDR language) front end."""

import pytest

from repro.errors import IdlSemanticError, IdlSyntaxError
from repro.aoi import (
    AoiArray,
    AoiInteger,
    AoiNamedRef,
    AoiOctet,
    AoiOptional,
    AoiSequence,
    AoiString,
    AoiStruct,
    AoiUnion,
)
from repro import api
from repro.oncrpc import parse_oncrpc_idl
from repro.oncrpc import ast


def oncrpc_aoi(text):
    return api.parse(text, "oncrpc")


class TestParser:
    def test_const(self):
        spec = parse_oncrpc_idl("const MAX = 255;")
        const = spec.definitions[0]
        assert const.name == "MAX"
        assert const.value.literal == 255

    def test_hex_const(self):
        spec = parse_oncrpc_idl("const PROG = 0x20000001;")
        assert spec.definitions[0].value.literal == 0x20000001

    def test_negative_const(self):
        spec = parse_oncrpc_idl("const NEG = -42;")
        assert spec.definitions[0].value.literal == -42

    def test_typedef_variable_array(self):
        spec = parse_oncrpc_idl("typedef int values<16>;")
        declaration = spec.definitions[0].declaration
        assert declaration.decoration == ast.Decoration.VAR_ARRAY
        assert declaration.size.literal == 16

    def test_typedef_unbounded_array(self):
        spec = parse_oncrpc_idl("typedef int values<>;")
        assert spec.definitions[0].declaration.size is None

    def test_opaque_fixed(self):
        spec = parse_oncrpc_idl("typedef opaque digest[20];")
        declaration = spec.definitions[0].declaration
        assert declaration.decoration == ast.Decoration.OPAQUE_FIXED

    def test_string_bounded(self):
        spec = parse_oncrpc_idl("typedef string name<64>;")
        declaration = spec.definitions[0].declaration
        assert declaration.decoration == ast.Decoration.STRING

    def test_pointer_declaration(self):
        spec = parse_oncrpc_idl("struct n { n *next; };")
        struct = spec.definitions[0].declaration.type
        assert struct.members[0].decoration == ast.Decoration.OPTIONAL

    def test_void_members_are_dropped(self):
        spec = parse_oncrpc_idl("struct s { int a; void; };")
        struct = spec.definitions[0].declaration.type
        assert len(struct.members) == 1

    def test_union_with_default(self):
        spec = parse_oncrpc_idl(
            "union r switch (int s) { case 0: int ok; default: void; };"
        )
        union = spec.definitions[0].declaration.type
        assert len(union.cases) == 1
        assert union.default is not None

    def test_union_multi_case_values(self):
        spec = parse_oncrpc_idl(
            "union r switch (int s) { case 1: case 2: int v; };"
        )
        union = spec.definitions[0].declaration.type
        assert len(union.cases[0].values) == 2

    def test_percent_passthrough_lines_ignored(self):
        spec = parse_oncrpc_idl("%#include <x.h>\nconst A = 1;")
        assert spec.definitions[0].name == "A"

    def test_program_structure(self):
        spec = parse_oncrpc_idl(
            "program P { version V { int f(int) = 1; } = 2; } = 3;"
        )
        program = spec.definitions[0]
        assert program.number == 3
        assert program.versions[0].number == 2
        assert program.versions[0].procedures[0].number == 1

    def test_multi_argument_procedure(self):
        spec = parse_oncrpc_idl(
            "program P { version V { int f(int, int, string) = 1; } = 1; } = 9;"
        )
        procedure = spec.definitions[0].versions[0].procedures[0]
        assert len(procedure.arguments) == 3

    def test_void_procedure_argument(self):
        spec = parse_oncrpc_idl(
            "program P { version V { int f(void) = 1; } = 1; } = 9;"
        )
        procedure = spec.definitions[0].versions[0].procedures[0]
        assert procedure.arguments == ()

    def test_quadruple_rejected(self):
        with pytest.raises(IdlSyntaxError):
            parse_oncrpc_idl("typedef quadruple q;")

    def test_struct_reference_type(self):
        spec = parse_oncrpc_idl(
            "struct a { int v; }; struct b { struct a inner; };"
        )
        inner = spec.definitions[1].declaration.type.members[0]
        assert isinstance(inner.type, ast.XdrNamed)


class TestLowering:
    def test_primitive_map(self):
        root = oncrpc_aoi(
            "struct s { int a; unsigned int b; hyper c; bool d; };"
        )
        fields = root.types["s"].fields
        assert fields[0].type == AoiInteger(32, True)
        assert fields[1].type == AoiInteger(32, False)
        assert fields[2].type == AoiInteger(64, True)

    def test_opaque_var_is_octet_sequence(self):
        root = oncrpc_aoi("typedef opaque data<100>;")
        assert root.types["data"] == AoiSequence(AoiOctet(), 100)

    def test_string_bound_via_constant(self):
        root = oncrpc_aoi(
            "const MAX = 12; typedef string s<MAX>;"
        )
        assert root.types["s"] == AoiString(12)

    def test_optional_becomes_aoioptional(self):
        root = oncrpc_aoi("struct n { int v; n *next; };")
        struct = root.types["n"]
        assert struct.fields[1].type == AoiOptional(AoiNamedRef("n"))

    def test_enum_explicit_and_implicit_values(self):
        root = oncrpc_aoi("enum e { A = 5, B, C = 10 };")
        assert root.types["e"].members == (("A", 5), ("B", 6), ("C", 10))

    def test_enum_members_are_constants(self):
        root = oncrpc_aoi(
            "enum e { A = 3 }; typedef int arr<A>;"
        )
        assert root.types["arr"].bound == 3

    def test_union_lowering(self):
        root = oncrpc_aoi(
            "union r switch (int s) { case 0: int ok; default: void; };"
        )
        union = root.types["r"]
        assert isinstance(union, AoiUnion)
        assert union.cases[0].labels == (0,)
        assert union.cases[1].is_default

    def test_program_becomes_interface(self):
        root = oncrpc_aoi(
            "program P { version V { int f(int) = 1; } = 2; } = 77;"
        )
        interface = root.interface_named("P::V")
        assert interface.code == (77, 2)
        assert interface.operations[0].request_code == 1

    def test_two_versions_two_interfaces(self):
        root = oncrpc_aoi(
            "program P {"
            " version V1 { int f(int) = 1; } = 1;"
            " version V2 { int f(int) = 1; int g(int) = 2; } = 2;"
            "} = 77;"
        )
        assert len(root.interfaces) == 2
        assert len(root.interface_named("P::V2").operations) == 2

    def test_procedure_string_argument(self):
        root = oncrpc_aoi(
            "program P { version V { void f(string) = 1; } = 1; } = 9;"
        )
        parameter = root.interface_named("P::V").operations[0].parameters[0]
        assert parameter.type == AoiString(None)

    def test_undefined_constant_reference_raises(self):
        with pytest.raises(IdlSemanticError):
            oncrpc_aoi("typedef int arr<NOPE>;")

    def test_inline_nested_struct_gets_registered(self):
        root = oncrpc_aoi(
            "struct outer { struct { int v; } inner_anon; int z; };"
        )
        outer = root.types["outer"]
        inner_ref = outer.fields[0].type
        assert isinstance(inner_ref, AoiNamedRef)
        assert isinstance(root.resolve(inner_ref), AoiStruct)
