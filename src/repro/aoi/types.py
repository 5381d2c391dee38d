"""AOI type nodes.

AOI types describe data at the level of the *interface contract*: value
ranges and aggregate shapes, with no commitment to a wire encoding or to a
target-language representation.  Recursive types (linked lists and trees,
which the ONC RPC IDL can express via optional pointers) are represented by
:class:`AoiNamedRef` nodes resolved through the enclosing
:class:`repro.aoi.interfaces.AoiRoot` scope, so the node graph itself stays
acyclic and trivially printable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple


class AoiType:
    """Base class for all AOI type nodes.

    Subclasses are frozen dataclasses: AOI nodes are immutable values, which
    makes them safe to share between the request and reply descriptions of
    many operations.
    """


@dataclass(frozen=True)
class AoiVoid(AoiType):
    """No data (operation with no result)."""


@dataclass(frozen=True)
class AoiInteger(AoiType):
    """An integer constrained to *bits* and signedness.

    AOI integers describe value ranges, not encodings: an ``AoiInteger(16,
    True)`` may be encoded in 4 bytes by XDR and 2 bytes by CDR.
    """

    bits: int = 32
    signed: bool = True

    def range(self):
        """Return the inclusive ``(lo, hi)`` value range."""
        if self.signed:
            half = 1 << (self.bits - 1)
            return (-half, half - 1)
        return (0, (1 << self.bits) - 1)


@dataclass(frozen=True)
class AoiFloat(AoiType):
    """An IEEE floating-point value of 32 or 64 bits."""

    bits: int = 64


@dataclass(frozen=True)
class AoiChar(AoiType):
    """A single character."""


@dataclass(frozen=True)
class AoiBoolean(AoiType):
    """A truth value."""


@dataclass(frozen=True)
class AoiOctet(AoiType):
    """An uninterpreted 8-bit quantity (never byte-swapped)."""


@dataclass(frozen=True)
class AoiString(AoiType):
    """A character string, optionally bounded to *bound* characters."""

    bound: Optional[int] = None


@dataclass(frozen=True)
class AoiEnum(AoiType):
    """A named enumeration; members are ``(name, value)`` pairs."""

    name: str
    members: Tuple[Tuple[str, int], ...]

    def value_of(self, member_name):
        for name, value in self.members:
            if name == member_name:
                return value
        raise KeyError(member_name)


@dataclass(frozen=True)
class AoiArray(AoiType):
    """A fixed-length array of *length* elements."""

    element: AoiType
    length: int


@dataclass(frozen=True)
class AoiSequence(AoiType):
    """A variable-length array, optionally bounded to *bound* elements."""

    element: AoiType
    bound: Optional[int] = None


@dataclass(frozen=True)
class AoiOptional(AoiType):
    """Zero-or-one occurrence of *element* (XDR's ``*`` pointer syntax).

    This is the node through which recursive types (lists, trees) tie their
    knots, always via an :class:`AoiNamedRef`.
    """

    element: AoiType


@dataclass(frozen=True)
class AoiStructField(AoiType):
    """One named field of a struct or exception."""

    name: str
    type: AoiType


@dataclass(frozen=True)
class AoiStruct(AoiType):
    """A record with named, ordered fields."""

    name: str
    fields: Tuple[AoiStructField, ...]


@dataclass(frozen=True)
class AoiUnionCase(AoiType):
    """One arm of a discriminated union.

    ``labels`` holds the discriminator values selecting this arm; an empty
    tuple marks the ``default`` arm.  A case with ``type`` of
    :class:`AoiVoid` carries no payload.
    """

    labels: Tuple[object, ...]
    name: str
    type: AoiType

    @property
    def is_default(self):
        return not self.labels


@dataclass(frozen=True)
class AoiUnion(AoiType):
    """A discriminated union over *discriminator* (an integral AOI type)."""

    name: str
    discriminator: AoiType
    cases: Tuple[AoiUnionCase, ...]


@dataclass(frozen=True)
class AoiNamedRef(AoiType):
    """A reference to a named type definition in the AOI root scope."""

    name: str
