"""Unit tests for MINT construction and analyses."""

import pytest

from repro import frontends
from repro.mint import (
    MintArray,
    MintBuilder,
    MintChar,
    MintInteger,
    MintStruct,
    MintTypeRef,
    MintUnion,
    MintVoid,
    StorageClass,
    analyze_storage,
    is_recursive,
)
from repro.encoding import CDR_BE, FLUKE, MACH, XDR

IDL = """
module T {
  struct Point { long x, y; };
  struct Rect { Point ul; Point lr; };
  typedef sequence<long> Ints;
  typedef sequence<long, 10> Bounded;
  typedef octet Tag[16];
  union U switch (long) { case 0: long a; case 1: string s; };
  interface I {
    long f(in Rect r, in string s, out Point p);
    oneway void g(in long x);
  };
};
"""


@pytest.fixture(scope="module")
def built():
    root = frontends.get("corba").compile_frontend(IDL)
    builder = MintBuilder(root)
    return root, builder


class TestMintConstruction:
    def test_atoms(self, built):
        root, builder = built
        assert builder.mint_for(root.types["T::Ints"]) == MintArray(
            MintInteger(32, True), 0, None
        )

    def test_bounded_sequence(self, built):
        root, builder = built
        assert builder.mint_for(root.types["T::Bounded"]).max_length == 10

    def test_string_is_char_array(self, built):
        root, builder = built
        from repro.aoi import AoiString

        mint = builder.mint_for(AoiString(42))
        assert mint == MintArray(MintChar(), 0, 42)

    def test_fixed_octet_array(self, built):
        root, builder = built
        mint = builder.mint_for(root.types["T::Tag"])
        assert mint.is_fixed and mint.max_length == 16
        assert mint.element == MintInteger(8, False)

    def test_named_struct_goes_through_registry(self, built):
        root, builder = built
        from repro.aoi import AoiNamedRef

        mint = builder.mint_for(AoiNamedRef("T::Rect"))
        assert mint == MintTypeRef("T::Rect")
        resolved = builder.registry.resolve(mint)
        assert isinstance(resolved, MintStruct)
        assert [s.name for s in resolved.slots] == ["ul", "lr"]

    def test_union(self, built):
        root, builder = built
        mint = builder.registry.resolve(
            builder.mint_for(root.types["T::U"])
        )
        assert isinstance(mint, MintUnion)
        assert mint.cases[0].labels == (0,)

    def test_enum_is_i32(self):
        root = frontends.get("corba").compile_frontend("enum E { A, B };")
        builder = MintBuilder(root)
        assert builder.registry.resolve(
            builder.mint_for(root.types["E"])
        ) == MintInteger(32, True)


class TestEnumLabelSpellings:
    """A CORBA case label may name an enum member as a string literal
    (``case "B":``); the MINT label, and so the wire, carry the member's
    value, exactly as for the scoped name (``case B:``)."""

    IDL = ("enum C { A, B };"
           " union U switch (C) { case %s: long x; default: short y; };"
           " interface I { void f(in U u); };")
    WIRE = {
        "iiop": "47494f500100000000000028000000000000000101000000000000"
                "014900000000000002660000000000000000000001" "00000007",
        "oncrpc-xdr": "0000000100000000000000022000000000000001000000010000"
                      "00000000000000000000000000000000000100000007",
    }

    @pytest.mark.parametrize("label", ['"B"', "B"])
    def test_string_label_is_the_member_value(self, label):
        root = frontends.get("corba").compile_frontend(self.IDL % label)
        builder = MintBuilder(root)
        from repro.aoi import AoiNamedRef

        union = builder.registry.resolve(builder.mint_for(AoiNamedRef("U")))
        assert [case.labels for case in union.cases] == [(1,), ()]

    @pytest.mark.parametrize("backend", ["iiop", "oncrpc-xdr"])
    @pytest.mark.parametrize("label", ['"B"', "B"])
    def test_string_label_wire_bytes(self, label, backend):
        from repro import api
        from tests.test_fuzz_wire import _capture_requests

        module = api.compile(self.IDL % label, "corba",
                             backend=backend).module
        (request,) = _capture_requests(module, [("f", ((1, 7),))])
        assert request.hex() == self.WIRE[backend]


def _operation(root, interface, name):
    (found,) = [operation for operation
                in root.interface_named(interface).operations
                if operation.name == name]
    return found


class TestMessageMints:
    def test_request_struct_fields(self):
        root = frontends.get("corba").compile_frontend(IDL)
        request = MintBuilder(root).request_mint(_operation(root, "T::I", "f"))
        assert [s.name for s in request.slots] == ["r", "s"]

    def test_reply_union_success_and_exceptions(self):
        root = frontends.get("corba").compile_frontend(
            "exception E { long c; };"
            "interface I { long f(out long y) raises (E); };")
        reply = MintBuilder(root).reply_mint(_operation(root, "I", "f"))
        assert isinstance(reply, MintUnion)
        assert len(reply.cases) == 2
        success = reply.cases[0].type
        assert [s.name for s in success.slots] == ["_return", "y"]

    def test_oneway_has_no_reply(self):
        root = frontends.get("corba").compile_frontend(IDL)
        assert MintBuilder(root).reply_mint(_operation(root, "T::I", "g")) \
            is None


class TestStorageAnalysis:
    def analyze(self, idl_type_name, layout, idl=IDL):
        root = frontends.get("corba").compile_frontend(idl)
        builder = MintBuilder(root)
        from repro.aoi import AoiNamedRef

        mint = builder.mint_for(AoiNamedRef(idl_type_name))
        return analyze_storage(mint, layout, builder.registry)

    def test_fixed_struct_xdr(self):
        info = self.analyze("T::Rect", XDR)
        assert info.storage_class is StorageClass.FIXED
        assert info.max_size == 16

    def test_fixed_struct_fluke_packed(self):
        info = self.analyze("T::Rect", FLUKE)
        assert info.max_size == 16

    def test_unbounded_sequence(self):
        info = self.analyze("T::Ints", XDR)
        assert info.storage_class is StorageClass.UNBOUNDED
        assert info.max_size is None

    def test_bounded_sequence(self):
        info = self.analyze("T::Bounded", XDR)
        assert info.storage_class is StorageClass.BOUNDED
        assert info.max_size == 4 + 10 * 4

    def test_fixed_octet_array_xdr(self):
        info = self.analyze("T::Tag", XDR)
        assert info.storage_class is StorageClass.FIXED
        assert info.max_size == 16  # 16 bytes, already 4-aligned

    def test_fixed_octet_array_mach_has_descriptor(self):
        info = self.analyze("T::Tag", MACH)
        assert info.max_size == 8 + 16 + 3  # descriptor + data + worst pad

    def test_union_with_string_arm_unbounded(self):
        info = self.analyze("T::U", XDR)
        assert info.storage_class is StorageClass.UNBOUNDED

    def test_union_equal_fixed_arms_is_fixed(self):
        idl = "union V switch (long) { case 0: long a; case 1: long b; };"
        info = self.analyze("V", XDR, idl)
        assert info.storage_class is StorageClass.FIXED
        assert info.max_size == 8

    def test_union_unequal_fixed_arms_is_bounded(self):
        idl = "union V switch (long) { case 0: long a; case 1: double b; };"
        info = self.analyze("V", XDR, idl)
        assert info.storage_class is StorageClass.BOUNDED

    def test_cdr_alignment_padding_in_bounds(self):
        idl = "struct S { octet o; double d; };"
        info = self.analyze("S", CDR_BE, idl)
        # 1 byte + up to 7 pad + 8 = worst case 16.
        assert info.storage_class is StorageClass.FIXED
        assert info.max_size == 16

    def test_recursive_type_unbounded(self):
        idl = "struct n { long v; sequence<n> kids; };"
        info = self.analyze("n", XDR, idl)
        assert info.storage_class is StorageClass.UNBOUNDED


class TestRecursion:
    def test_is_recursive_detects_lists(self):
        root = frontends.get("oncrpc").compile_frontend(
            "struct n { int v; n *next; };")
        builder = MintBuilder(root)
        from repro.aoi import AoiNamedRef

        mint = builder.mint_for(AoiNamedRef("n"))
        assert is_recursive(mint, builder.registry)

    def test_non_recursive(self):
        root = frontends.get("corba").compile_frontend(IDL)
        builder = MintBuilder(root)
        from repro.aoi import AoiNamedRef

        mint = builder.mint_for(AoiNamedRef("T::Rect"))
        assert not is_recursive(mint, builder.registry)
