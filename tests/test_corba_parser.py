"""Unit tests for the CORBA IDL parser."""

import pytest

from repro import api
from repro.errors import IdlSyntaxError
from repro.corba import ast
from repro.corba.parser import parse_corba_idl


def parse_one(text):
    spec = parse_corba_idl(text)
    assert len(spec.definitions) == 1
    return spec.definitions[0]


class TestModulesAndInterfaces:
    def test_empty_interface(self):
        interface = parse_one("interface I {};")
        assert isinstance(interface, ast.AstInterface)
        assert interface.name == "I"
        assert interface.body == ()

    def test_nested_modules(self):
        module = parse_one("module A { module B { interface I {}; }; };")
        inner = module.body[0]
        assert isinstance(inner, ast.AstModule)
        assert inner.body[0].name == "I"

    def test_interface_inheritance(self):
        interface = parse_one("interface I : A, B::C {};")
        assert [str(p) for p in interface.parents] == ["A", "B::C"]

    def test_missing_semicolon_raises(self):
        with pytest.raises(IdlSyntaxError):
            parse_corba_idl("interface I {}")


class TestOperations:
    def test_void_no_params(self):
        interface = parse_one("interface I { void f(); };")
        operation = interface.body[0]
        assert operation.name == "f"
        assert operation.parameters == ()
        assert operation.return_type == ast.AstPrimitive("void")

    def test_directions(self):
        interface = parse_one(
            "interface I { void f(in long a, out long b, inout long c); };"
        )
        directions = [p.direction for p in interface.body[0].parameters]
        assert directions == ["in", "out", "inout"]

    def test_missing_direction_raises(self):
        with pytest.raises(IdlSyntaxError):
            parse_corba_idl("interface I { void f(long a); };")

    def test_oneway(self):
        interface = parse_one("interface I { oneway void f(in long a); };")
        assert interface.body[0].oneway

    def test_raises_parses_names(self):
        spec = parse_corba_idl(
            "exception E { }; interface I { void f() raises (E); };"
        )
        interface = spec.definitions[1]
        assert [str(e) for e in interface.body[0].raises] == ["E"]

    def test_context_clause_is_accepted_and_ignored(self):
        interface = parse_one(
            'interface I { void f() context ("a", "b"); };'
        )
        assert interface.body[0].name == "f"

    def test_return_scoped_type(self):
        interface = parse_one("interface I { M::T f(); };")
        assert str(interface.body[0].return_type) == "M::T"


class TestAttributes:
    def test_attribute(self):
        interface = parse_one("interface I { attribute long a; };")
        attribute = interface.body[0]
        assert isinstance(attribute, ast.AstAttribute)
        assert not attribute.readonly

    def test_readonly_attribute_multiple_names(self):
        interface = parse_one("interface I { readonly attribute long a, b; };")
        attribute = interface.body[0]
        assert attribute.readonly
        assert attribute.names == ("a", "b")


class TestTypes:
    def test_primitive_spellings(self):
        spec = parse_corba_idl(
            "interface I { void f(in unsigned long long a,"
            " in long long b, in unsigned short c, in double d); };"
        )
        kinds = [
            p.type.kind for p in spec.definitions[0].body[0].parameters
        ]
        assert kinds == [
            "unsigned long long", "long long", "unsigned short", "double"
        ]

    def test_bounded_string(self):
        interface = parse_one("interface I { void f(in string<10> s); };")
        bound = interface.body[0].parameters[0].type.bound
        assert isinstance(bound, ast.AstLiteral)
        assert bound.value == 10

    def test_sequence_with_bound(self):
        interface = parse_one(
            "interface I { void f(in sequence<long, 4> s); };"
        )
        sequence = interface.body[0].parameters[0].type
        assert isinstance(sequence, ast.AstSequence)
        assert sequence.bound.value == 4

    def test_nested_sequence(self):
        interface = parse_one(
            "interface I { void f(in sequence<sequence<long> > s); };"
        )
        sequence = interface.body[0].parameters[0].type
        assert isinstance(sequence.element, ast.AstSequence)

    def test_absolute_scoped_name(self):
        interface = parse_one("interface I { void f(in ::A::B x); };")
        name = interface.body[0].parameters[0].type
        assert name.absolute
        assert name.parts == ("A", "B")


class TestConstructedTypes:
    def test_struct_multi_declarator(self):
        struct = parse_one("struct P { long x, y; };")
        assert struct.members[0].declarators == (
            ast.AstDeclarator("x"), ast.AstDeclarator("y"),
        )

    def test_struct_array_member(self):
        struct = parse_one("struct M { long grid[3][4]; };")
        declarator = struct.members[0].declarators[0]
        assert len(declarator.dimensions) == 2

    def test_union_with_default(self):
        union = parse_one(
            "union U switch (long) {"
            " case 1: long a; case 2: case 3: double b;"
            " default: string s; };"
        )
        assert len(union.cases) == 3
        assert union.cases[1].labels[0].value == 2
        assert union.cases[2].labels == (None,)

    def test_enum(self):
        enum = parse_one("enum E { A, B, C };")
        assert enum.members == ("A", "B", "C")

    def test_typedef_of_struct(self):
        typedef = parse_one("typedef struct Q { long v; } QQ;")
        assert isinstance(typedef.type, ast.AstStruct)
        assert typedef.declarators[0].name == "QQ"

    def test_exception(self):
        exception = parse_one("exception E { string why; };")
        assert exception.name == "E"
        assert len(exception.members) == 1


class TestConstants:
    def test_const_expression_precedence(self):
        const = parse_one("const long K = 1 + 2 * 3;")
        value = const.value
        assert isinstance(value, ast.AstBinary)
        assert value.operator == "+"
        assert value.right.operator == "*"

    def test_const_parenthesized(self):
        const = parse_one("const long K = (1 + 2) * 3;")
        assert const.value.operator == "*"

    def test_const_shift_and_mask(self):
        const = parse_one("const long K = 1 << 4 | 15;")
        assert const.value.operator == "|"

    def test_const_unary_minus(self):
        const = parse_one("const long K = -5;")
        assert isinstance(const.value, ast.AstUnary)

    def test_const_boolean(self):
        const = parse_one("const boolean F = FALSE;")
        assert const.value.value is False

    def test_const_reference(self):
        spec = parse_corba_idl("const long A = 1; const long B = A;")
        value = spec.definitions[1].value
        assert isinstance(value, ast.AstConstRef)


class TestAsciiIdentifiersAndDigits:
    """CORBA 2.0 section 3.2.3 allows ASCII identifiers only.  Before, the
    first two schemas parsed and compiled: loading the struct's module
    raised a raw ``SyntaxError`` from ``def __init__(self, x²=None)`` and
    the interface's C stub was named ``M_Lédger_ping``; ``²`` was a raw
    ``ValueError`` and ``٣`` read as 3."""

    @pytest.mark.parametrize("text,where,char", [
        ("struct Pöint { long x²; };", "1:9", "ö"),
        ("struct Point { long x²; };", "1:22", "²"),
        ("module M {\n  interface Lédger { void ping(); };\n};", "2:14", "é"),
        ("const long N = ²;", "1:16", "²"),
        ("const long N = ٣;", "1:16", "٣"),
    ])
    def test_non_ascii_is_a_syntax_error_at_its_place(self, text, where,
                                                      char):
        with pytest.raises(IdlSyntaxError) as caught:
            parse_corba_idl(text, "u.idl")
        assert str(caught.value) == "u.idl:%s: unexpected character %r" % (
            where, char)
        with pytest.raises(IdlSyntaxError, match="u.idl:%s:" % where):
            api.compile("%s interface I { void f(); };" % text, "corba",
                        name="u.idl", interface="I")
