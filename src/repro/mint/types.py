"""MINT type nodes.

A MINT type is a directed graph, potentially cyclic through
:class:`MintTypeRef` nodes resolved in a :class:`MintRegistry`.  Atoms carry
value ranges only; the byte-level encoding of a ``MintInteger(32, True)`` is
chosen later by a back end's wire format (4 big-endian bytes for XDR, 4
sender-endian bytes for CDR, and so on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import FlickError


class MintType:
    """Base class for all MINT nodes."""


@dataclass(frozen=True)
class MintVoid(MintType):
    """No data."""


@dataclass(frozen=True)
class MintInteger(MintType):
    """Signed or unsigned integer of a given bit width (8/16/32/64)."""

    bits: int = 32
    signed: bool = True

    def range(self):
        if self.signed:
            half = 1 << (self.bits - 1)
            return (-half, half - 1)
        return (0, (1 << self.bits) - 1)


@dataclass(frozen=True)
class MintFloat(MintType):
    """IEEE float of 32 or 64 bits."""

    bits: int = 64


@dataclass(frozen=True)
class MintChar(MintType):
    """A character (one text unit; encodings decide bytes)."""


@dataclass(frozen=True)
class MintBoolean(MintType):
    """A truth value."""


#: The atomic MINT node classes; everything else is an aggregate.
ATOM_TYPES = (MintInteger, MintFloat, MintChar, MintBoolean)


def is_atom(mint_type):
    """True if *mint_type* is an atomic MINT node."""
    return isinstance(mint_type, ATOM_TYPES)


@dataclass(frozen=True)
class MintArray(MintType):
    """An array of *element* with between *min_length* and *max_length*
    elements.

    ``min_length == max_length`` is a fixed array; ``max_length is None`` is
    unbounded.  Strings are arrays of :class:`MintChar`; XDR optional data
    is an array with bounds (0, 1).
    """

    element: MintType
    min_length: int = 0
    max_length: Optional[int] = None

    @property
    def is_fixed(self):
        return self.max_length is not None and self.min_length == self.max_length

    @property
    def is_bounded(self):
        return self.max_length is not None


@dataclass(frozen=True)
class MintSlot(MintType):
    """A named member of a :class:`MintStruct`."""

    name: str
    type: MintType


@dataclass(frozen=True)
class MintStruct(MintType):
    """An ordered aggregate of named slots."""

    slots: Tuple[MintSlot, ...]

    def slot_named(self, name):
        for slot in self.slots:
            if slot.name == name:
                return slot
        raise KeyError(name)


@dataclass(frozen=True)
class MintUnionCase(MintType):
    """One arm of a :class:`MintUnion`; empty *labels* marks the default."""

    labels: Tuple[object, ...]
    name: str
    type: MintType

    @property
    def is_default(self):
        return not self.labels


@dataclass(frozen=True)
class MintUnion(MintType):
    """A discriminated union: the discriminator atom plus the arms."""

    discriminator: MintType
    cases: Tuple[MintUnionCase, ...]

    def case_for(self, value):
        default = None
        for case in self.cases:
            if case.is_default:
                default = case
            elif value in case.labels:
                return case
        if default is None:
            raise KeyError(value)
        return default


@dataclass(frozen=True)
class MintConst(MintType):
    """A typed literal constant appearing inside a message (e.g. the
    procedure number in an ONC RPC call header)."""

    type: MintType
    value: object


@dataclass(frozen=True)
class MintSystemException(MintType):
    """Marker for the CORBA system-exception reply arm."""


@dataclass(frozen=True)
class MintTypeRef(MintType):
    """A named reference resolved through a :class:`MintRegistry`; the knot
    through which recursive message types tie."""

    name: str


class MintRegistry:
    """Named MINT definitions; the resolution scope for MintTypeRef."""

    def __init__(self):
        self._definitions: Dict[str, MintType] = {}
        #: name -> :func:`repro.mint.analysis.is_recursive` answer; any
        #: ``define`` can close a cycle, so it empties this.
        self.recursive_memo: Dict[str, bool] = {}

    def define(self, name, mint_type):
        if name in self._definitions:
            raise FlickError("duplicate MINT definition %r" % name)
        self._definitions[name] = mint_type
        self.recursive_memo.clear()

    def __contains__(self, name):
        return name in self._definitions

    def __getitem__(self, name):
        return self._definitions[name]

    def names(self):
        return sorted(self._definitions)

    def resolve(self, mint_type):
        """Chase MintTypeRef links one step at a time to a concrete node."""
        seen = set()
        while isinstance(mint_type, MintTypeRef):
            if mint_type.name in seen:
                raise FlickError(
                    "circular MINT reference through %r" % mint_type.name
                )
            seen.add(mint_type.name)
            try:
                mint_type = self._definitions[mint_type.name]
            except KeyError:
                raise FlickError(
                    "undefined MINT reference %r" % mint_type.name
                ) from None
        return mint_type
