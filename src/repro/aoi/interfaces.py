"""AOI interface, operation, and scope structures.

An :class:`AoiRoot` is the complete output of a front end: the named type
definitions plus the interfaces.  An :class:`AoiInterface` carries the
operations and attributes; each :class:`AoiOperation` records its request
and reply data plus the *request code* used to identify it on the wire —
an integer procedure number for ONC RPC interfaces or the operation-name
string for CORBA/GIOP-style interfaces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import AoiValidationError
from repro.aoi.types import AoiType, AoiNamedRef, AoiStructField, AoiVoid


class Direction(enum.Enum):
    """Parameter passing direction, as in CORBA IDL."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"

    @property
    def is_in(self):
        return self in (Direction.IN, Direction.INOUT)

    @property
    def is_out(self):
        return self in (Direction.OUT, Direction.INOUT)


@dataclass(frozen=True)
class AoiParameter:
    """One formal parameter of an operation."""

    name: str
    type: AoiType
    direction: Direction = Direction.IN


@dataclass(frozen=True)
class AoiException:
    """A named exception with struct-like members (CORBA ``exception``)."""

    name: str
    fields: Tuple[AoiStructField, ...] = ()


@dataclass(frozen=True)
class AoiOperation:
    """One invocable operation of an interface.

    Attributes:
        request_code: wire identifier of the operation — an ``int``
            procedure number (ONC RPC) or the operation name ``str``
            (CORBA/GIOP).
        oneway: if true the operation has no reply message.
        raises: names of exceptions the operation may raise.
    """

    name: str
    parameters: Tuple[AoiParameter, ...] = ()
    return_type: AoiType = AoiVoid()
    request_code: object = None
    oneway: bool = False
    raises: Tuple[str, ...] = ()

    def in_parameters(self):
        return tuple(p for p in self.parameters if p.direction.is_in)

    def out_parameters(self):
        return tuple(p for p in self.parameters if p.direction.is_out)


@dataclass(frozen=True)
class AoiAttribute:
    """A CORBA attribute; presented as get/set operation pairs."""

    name: str
    type: AoiType
    readonly: bool = False


@dataclass(frozen=True)
class AoiInterface:
    """A named interface: operations, attributes, and inheritance.

    ``code`` identifies the interface on the wire: for ONC RPC it is the
    ``(program, version)`` pair; for CORBA it is the repository-id string.
    """

    name: str
    operations: Tuple[AoiOperation, ...] = ()
    attributes: Tuple[AoiAttribute, ...] = ()
    parents: Tuple[str, ...] = ()
    code: object = None


@dataclass(frozen=True)
class AoiConstant:
    """A named compile-time constant."""

    name: str
    type: AoiType
    value: object


class AoiRoot:
    """The complete AOI produced by one front-end run.

    Holds the named type scope through which :class:`AoiNamedRef` nodes are
    resolved.  Names are stored fully qualified with ``::`` separators
    (e.g. ``"Finance::Account"``).
    """

    def __init__(self, name="<idl>"):
        self.name = name
        self.types: Dict[str, AoiType] = {}
        self.constants: Dict[str, AoiConstant] = {}
        self.exceptions: Dict[str, AoiException] = {}
        self.interfaces: List[AoiInterface] = []

    # ------------------------------------------------------------------

    def define_type(self, name, aoi_type):
        """Bind *name* to *aoi_type*; duplicate definitions are an error."""
        if name in self.types:
            raise AoiValidationError("duplicate type definition %r" % name)
        self.types[name] = aoi_type

    def define_constant(self, constant):
        if constant.name in self.constants:
            raise AoiValidationError(
                "duplicate constant definition %r" % constant.name
            )
        self.constants[constant.name] = constant

    def define_exception(self, exception):
        if exception.name in self.exceptions:
            raise AoiValidationError(
                "duplicate exception definition %r" % exception.name
            )
        self.exceptions[exception.name] = exception

    def add_interface(self, interface):
        if any(i.name == interface.name for i in self.interfaces):
            raise AoiValidationError(
                "duplicate interface definition %r" % interface.name
            )
        self.interfaces.append(interface)

    # ------------------------------------------------------------------

    def resolve(self, aoi_type):
        """Chase :class:`AoiNamedRef` links until a concrete type appears."""
        seen = set()
        while isinstance(aoi_type, AoiNamedRef):
            if aoi_type.name in seen:
                raise AoiValidationError(
                    "circular typedef through %r" % aoi_type.name
                )
            seen.add(aoi_type.name)
            try:
                aoi_type = self.types[aoi_type.name]
            except KeyError:
                raise AoiValidationError(
                    "reference to undefined type %r" % aoi_type.name
                ) from None
        return aoi_type

    def interface_named(self, name):
        for interface in self.interfaces:
            if interface.name == name:
                return interface
        raise KeyError(name)

    def exception_named(self, name):
        try:
            return self.exceptions[name]
        except KeyError:
            raise KeyError(name) from None

    def __repr__(self):
        return "AoiRoot(name=%r, %d types, %d interfaces)" % (
            self.name,
            len(self.types),
            len(self.interfaces),
        )
