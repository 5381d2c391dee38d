"""Tests for the IR registries, error hierarchy, and PRES node helpers."""

import pytest

from repro.errors import (
    AoiValidationError,
    BackEndError,
    DispatchError,
    FlickError,
    FlickUserException,
    IdlSemanticError,
    IdlSyntaxError,
    MarshalError,
    PresentationError,
    RuntimeFlickError,
    TransportError,
    UnmarshalError,
)
from repro.mint.types import MintInteger, MintRegistry, MintTypeRef, MintVoid
from repro.pres import nodes as p


class TestErrorHierarchy:
    def test_everything_is_a_flick_error(self):
        for error_class in (
            IdlSyntaxError, IdlSemanticError, AoiValidationError,
            PresentationError, BackEndError, RuntimeFlickError,
            MarshalError, UnmarshalError, TransportError, DispatchError,
            FlickUserException,
        ):
            assert issubclass(error_class, FlickError), error_class

    def test_runtime_errors_grouped(self):
        for error_class in (
            MarshalError, UnmarshalError, TransportError, DispatchError,
            FlickUserException,
        ):
            assert issubclass(error_class, RuntimeFlickError), error_class

    def test_compile_time_errors_not_runtime(self):
        for error_class in (IdlSyntaxError, BackEndError):
            assert not issubclass(error_class, RuntimeFlickError)

    def test_syntax_error_renders_location(self):
        from repro.idl.source import SourceLocation

        error = IdlSyntaxError("boom", SourceLocation("x.idl", 3, 9))
        assert "x.idl:3:9" in str(error)

    def test_syntax_error_without_location(self):
        assert str(IdlSyntaxError("boom")) == "boom"


class TestMintRegistry:
    def test_define_and_resolve(self):
        registry = MintRegistry()
        registry.define("a", MintInteger(32, True))
        assert registry.resolve(MintTypeRef("a")) == MintInteger(32, True)

    def test_resolve_chases_chains(self):
        registry = MintRegistry()
        registry.define("a", MintTypeRef("b"))
        registry.define("b", MintVoid())
        assert registry.resolve(MintTypeRef("a")) == MintVoid()

    def test_duplicate_definition_rejected(self):
        registry = MintRegistry()
        registry.define("a", MintVoid())
        with pytest.raises(FlickError):
            registry.define("a", MintVoid())

    def test_undefined_reference_rejected(self):
        with pytest.raises(FlickError):
            MintRegistry().resolve(MintTypeRef("ghost"))

    def test_circular_reference_rejected(self):
        registry = MintRegistry()
        registry.define("a", MintTypeRef("b"))
        registry.define("b", MintTypeRef("a"))
        with pytest.raises(FlickError):
            registry.resolve(MintTypeRef("a"))

    def test_contains(self):
        registry = MintRegistry()
        registry.define("a", MintVoid())
        assert "a" in registry and "b" not in registry


class TestPresRegistry:
    def test_names_sorted(self):
        registry = p.PresRegistry()
        registry.define("zeta", p.PresVoid(MintVoid()))
        registry.define("alpha", p.PresVoid(MintVoid()))
        assert registry.names() == ["alpha", "zeta"]

    def test_resolve_non_ref_passthrough(self):
        registry = p.PresRegistry()
        node = p.PresVoid(MintVoid())
        assert registry.resolve(node) is node

    def test_circular_refs_rejected(self):
        registry = p.PresRegistry()
        registry.define("a", p.PresRef(MintTypeRef("a"), "b"))
        registry.define("b", p.PresRef(MintTypeRef("b"), "a"))
        with pytest.raises(FlickError):
            registry.resolve(p.PresRef(MintTypeRef("a"), "a"))

    def test_undefined_ref_rejected(self):
        registry = p.PresRegistry()
        with pytest.raises(FlickError):
            registry.resolve(p.PresRef(MintTypeRef("x"), "ghost"))


class TestPresUnionHelpers:
    def make_union(self):
        mint_disc = MintInteger(32, True)
        from repro.mint.types import MintUnion, MintUnionCase

        mint = MintUnion(
            mint_disc,
            (
                MintUnionCase((1, 2), "low", MintVoid()),
                MintUnionCase((), "other", MintVoid()),
            ),
        )
        return p.PresUnion(
            mint, "U",
            p.PresDirect(mint_disc, "int"),
            (
                p.PresUnionArm((1, 2), "low", p.PresVoid(MintVoid())),
                p.PresUnionArm((), "other", p.PresVoid(MintVoid())),
            ),
        )

    def test_arm_for_label(self):
        union = self.make_union()
        assert union.arm_for(1).name == "low"
        assert union.arm_for(2).name == "low"

    def test_arm_for_default(self):
        union = self.make_union()
        assert union.arm_for(99).name == "other"

    def test_arm_for_missing_without_default(self):
        union = self.make_union()
        no_default = p.PresUnion(
            union.mint, "U", union.discriminator, union.arms[:1]
        )
        with pytest.raises(PresentationError):
            no_default.arm_for(99)

