"""Construct MINT message descriptions from AOI.

The first step of presentation generation (paper section 2.2.1) is to build
an abstract description of every request and reply message.  For an
operation ``T op(in A a, inout B b, out C c)`` the request message is the
struct of its ``in``/``inout`` parameters and the reply message is a
discriminated union: the success arm carries the return value plus
``out``/``inout`` parameters, and one arm per declared exception carries the
exception members.  Oneway operations have no reply.
"""

from __future__ import annotations

from repro.aoi import (
    AoiArray,
    AoiBoolean,
    AoiChar,
    AoiEnum,
    AoiFloat,
    AoiInteger,
    AoiNamedRef,
    AoiOctet,
    AoiOptional,
    AoiSequence,
    AoiString,
    AoiStruct,
    AoiUnion,
    AoiVoid,
)
from repro.errors import FlickError
from repro.mint.types import (
    MintArray,
    MintBoolean,
    MintChar,
    MintFloat,
    MintInteger,
    MintRegistry,
    MintSlot,
    MintStruct,
    MintTypeRef,
    MintUnion,
    MintUnionCase,
    MintVoid,
)

#: Reply-union discriminator values: 0 = success, 1..n = declared exception
#: index, matching both the ONC RPC accept-stat idea and the GIOP reply
#: status (NO_EXCEPTION / USER_EXCEPTION).
REPLY_SUCCESS = 0


class MintBuilder:
    """Translates AOI types to MINT against a shared registry."""

    def __init__(self, root):
        self.root = root
        self.registry = MintRegistry()
        self._building = set()

    # ------------------------------------------------------------------

    def mint_for(self, aoi_type):
        """Return the MINT node describing *aoi_type* on the wire."""
        if isinstance(aoi_type, AoiNamedRef):
            return self._mint_for_named(aoi_type.name)
        if isinstance(aoi_type, AoiVoid):
            return MintVoid()
        if isinstance(aoi_type, AoiInteger):
            return MintInteger(aoi_type.bits, aoi_type.signed)
        if isinstance(aoi_type, AoiFloat):
            return MintFloat(aoi_type.bits)
        if isinstance(aoi_type, AoiChar):
            return MintChar()
        if isinstance(aoi_type, AoiBoolean):
            return MintBoolean()
        if isinstance(aoi_type, AoiOctet):
            return MintInteger(8, False)
        if isinstance(aoi_type, AoiEnum):
            # Enums travel as 32-bit integers in both XDR and CDR.
            return MintInteger(32, True)
        if isinstance(aoi_type, AoiString):
            return MintArray(MintChar(), 0, aoi_type.bound)
        if isinstance(aoi_type, AoiArray):
            return MintArray(
                self.mint_for(aoi_type.element),
                aoi_type.length,
                aoi_type.length,
            )
        if isinstance(aoi_type, AoiSequence):
            return MintArray(self.mint_for(aoi_type.element), 0, aoi_type.bound)
        if isinstance(aoi_type, AoiOptional):
            return MintArray(self.mint_for(aoi_type.element), 0, 1)
        if isinstance(aoi_type, AoiStruct):
            return MintStruct(
                tuple(
                    MintSlot(field.name, self.mint_for(field.type))
                    for field in aoi_type.fields
                )
            )
        if isinstance(aoi_type, AoiUnion):
            return self._mint_for_union(aoi_type)
        raise FlickError(
            "cannot build MINT for AOI node %r" % type(aoi_type).__name__
        )

    def _mint_for_named(self, name):
        """Named types become registry entries so recursion can tie off."""
        if name not in self.registry:
            if name in self._building:
                # Recursive reference: the definition is on the stack and
                # will be registered when it completes.
                return MintTypeRef(name)
            self._building.add(name)
            try:
                definition = self.mint_for(self.root.types[name])
            except KeyError:
                raise FlickError("undefined AOI type %r" % name) from None
            finally:
                self._building.discard(name)
            self.registry.define(name, definition)
        return MintTypeRef(name)

    def _mint_for_union(self, aoi_union):
        discriminator_aoi = self.root.resolve(aoi_union.discriminator)
        discriminator = self.mint_for(discriminator_aoi)
        cases = []
        for case in aoi_union.cases:
            labels = tuple(
                self._label_value(label, discriminator_aoi)
                for label in case.labels
            )
            cases.append(
                MintUnionCase(labels, case.name, self.mint_for(case.type))
            )
        return MintUnion(discriminator, tuple(cases))

    def _label_value(self, label, discriminator_aoi):
        """Normalize union labels to the values carried on the wire."""
        if isinstance(discriminator_aoi, AoiEnum) and isinstance(label, str):
            return discriminator_aoi.value_of(label)
        if isinstance(discriminator_aoi, AoiBoolean):
            return bool(label)
        if isinstance(discriminator_aoi, AoiChar) and isinstance(label, str):
            return label
        return label

    # ------------------------------------------------------------------

    def request_mint(self, operation):
        """The request message: a struct of the in-flowing parameters."""
        slots = tuple(
            MintSlot(parameter.name, self.mint_for(parameter.type))
            for parameter in operation.in_parameters()
        )
        return MintStruct(slots)

    def reply_mint(self, operation):
        """The reply message: success/exception union, or None if oneway."""
        if operation.oneway:
            return None
        success_slots = []
        return_mint = self.mint_for(operation.return_type)
        if not isinstance(return_mint, MintVoid):
            success_slots.append(MintSlot("_return", return_mint))
        for parameter in operation.out_parameters():
            success_slots.append(
                MintSlot(parameter.name, self.mint_for(parameter.type))
            )
        cases = [
            MintUnionCase(
                (REPLY_SUCCESS,), "_success", MintStruct(tuple(success_slots))
            )
        ]
        for index, exception_name in enumerate(operation.raises, 1):
            exception = self.root.exception_named(exception_name)
            exception_struct = MintStruct(
                tuple(
                    MintSlot(field.name, self.mint_for(field.type))
                    for field in exception.fields
                )
            )
            cases.append(
                MintUnionCase((index,), exception_name, exception_struct)
            )
        return MintUnion(MintInteger(32, False), tuple(cases))
