"""PRES node definitions.

Each node records a relationship between a MINT node and a presented
(target-language) type.  For the executable Python target the presented
types follow a fixed convention:

====================  =============================================
PRES node             Python presentation
====================  =============================================
PresDirect            int / float / bool / 1-char str
PresEnum              int (the enumerator's ordinal value)
PresString            str
PresBytes             bytes
PresFixedArray        list of *length* presented elements
PresCountedArray      list of presented elements
PresOptPtr            None, or the presented element (OPT_PTR)
PresStruct            record object (generated class) or mapping
PresUnion             ``(discriminator_value, presented_payload)``
PresException         exception instance with member attributes
PresVoid              None
====================  =============================================

For the C target the same nodes carry the CORBA-C/rpcgen type names chosen
by the presentation generator (``c_type_name``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import FlickError, PresentationError
from repro.mint.types import MintType


class PresNode:
    """Base class for presentation mapping nodes.

    Every node carries ``mint`` (the message type it presents) and
    ``c_type_name`` (the declared C type for the fidelity artifact).
    """


@dataclass(frozen=True)
class PresVoid(PresNode):
    mint: MintType
    c_type_name: str = "void"


@dataclass(frozen=True)
class PresDirect(PresNode):
    """Atom <-> scalar variable: no transformation (the paper's first
    example, ``int x`` <-> 4-byte integer)."""

    mint: MintType
    c_type_name: str


@dataclass(frozen=True)
class PresEnum(PresNode):
    """32-bit wire integer <-> named enumeration."""

    mint: MintType
    c_type_name: str
    enum_name: str
    members: Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class PresString(PresNode):
    """Counted char array <-> ``char *`` / Python str (the paper's second
    example, an OPT_STR-style mapping).

    ``carries_length`` selects the paper's alternative presentation
    (section 2.2: ``Mail_send(obj, msg, len)``): the application supplies
    the text as already-encoded bytes whose length is implicit, so the
    stub neither counts nor re-encodes characters.  The network contract
    is unchanged — only the programmer's contract differs.
    """

    mint: MintType
    c_type_name: str = "char *"
    bound: Optional[int] = None
    carries_length: bool = False


@dataclass(frozen=True)
class PresBytes(PresNode):
    """Octet array <-> opaque byte buffer / Python bytes."""

    mint: MintType
    c_type_name: str = "flick_octet_seq"
    fixed_length: Optional[int] = None
    bound: Optional[int] = None


@dataclass(frozen=True)
class PresFixedArray(PresNode):
    """Fixed-length MINT array <-> C array / Python list."""

    mint: MintType
    element: PresNode
    length: int
    c_type_name: str = ""


@dataclass(frozen=True)
class PresCountedArray(PresNode):
    """Variable-length MINT array <-> (pointer, length) / Python list."""

    mint: MintType
    element: PresNode
    bound: Optional[int] = None
    c_type_name: str = ""


@dataclass(frozen=True)
class PresOptPtr(PresNode):
    """0-or-1 MINT array <-> null-able pointer (the paper's OPT_PTR)."""

    mint: MintType
    element: PresNode
    c_type_name: str = ""


@dataclass(frozen=True)
class PresStructField(PresNode):
    name: str
    pres: PresNode


@dataclass(frozen=True)
class PresStruct(PresNode):
    """MINT struct <-> target record type.

    ``record_name`` is the generated class/struct identifier (e.g.
    ``Test_Rect``); the Python back ends emit a matching record class.
    """

    mint: MintType
    record_name: str
    fields: Tuple[PresStructField, ...]
    c_type_name: str = ""


@dataclass(frozen=True)
class PresUnionArm(PresNode):
    labels: Tuple[object, ...]
    name: str
    pres: PresNode

    @property
    def is_default(self):
        return not self.labels


@dataclass(frozen=True)
class PresUnion(PresNode):
    """MINT union <-> tagged union: ``(_d, _u)`` in the CORBA C mapping,
    a ``(discriminator, payload)`` pair in Python."""

    mint: MintType
    union_name: str
    discriminator: PresNode
    arms: Tuple[PresUnionArm, ...]
    c_type_name: str = ""

    def arm_for(self, value):
        default = None
        for arm in self.arms:
            if arm.is_default:
                default = arm
            elif value in arm.labels:
                return arm
        if default is None:
            raise PresentationError(
                "union %s has no arm for discriminator %r"
                % (self.union_name, value)
            )
        return default


@dataclass(frozen=True)
class PresException(PresNode):
    """Exception arm of a reply <-> raised exception object."""

    mint: MintType
    exception_name: str
    class_name: str
    fields: Tuple[PresStructField, ...]
    c_type_name: str = ""


@dataclass(frozen=True)
class PresRef(PresNode):
    """Reference to a named PRES definition (recursive presentations)."""

    mint: MintType  # the corresponding MintTypeRef
    name: str
    c_type_name: str = ""


class PresRegistry:
    """Named PRES definitions, parallel to the MINT registry."""

    def __init__(self):
        self._definitions: Dict[str, PresNode] = {}

    def define(self, name, pres_node):
        if name in self._definitions:
            raise FlickError("duplicate PRES definition %r" % name)
        self._definitions[name] = pres_node

    def __contains__(self, name):
        return name in self._definitions

    def __getitem__(self, name):
        return self._definitions[name]

    def names(self):
        return sorted(self._definitions)

    def resolve(self, pres_node):
        seen = set()
        while isinstance(pres_node, PresRef):
            if pres_node.name in seen:
                raise FlickError(
                    "circular PRES reference through %r" % pres_node.name
                )
            seen.add(pres_node.name)
            try:
                pres_node = self._definitions[pres_node.name]
            except KeyError:
                raise FlickError(
                    "undefined PRES reference %r" % pres_node.name
                ) from None
        return pres_node
