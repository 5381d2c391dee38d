"""PRES_C: the complete description of one interface presentation.

A PRES_C value is the contract between a presentation generator and a back
end (paper section 2.2.4): for each stub it carries the CAST declaration,
the MINT descriptions of the messages the stub sends and receives, and the
PRES trees associating the two.  It says *everything* about how client or
server code sees the interface and *nothing* about message encoding or
transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Optional, Tuple

from repro.mint.types import MintRegistry, MintType
from repro.pres.nodes import PresNode, PresRegistry, PresStruct, PresUnion


@dataclass(frozen=True)
class PresParam:
    """One presented parameter of a stub.

    ``direction`` is ``"in"``, ``"out"``, ``"inout"``, or ``"return"``.
    """

    name: str
    direction: str
    pres: PresNode

    @property
    def is_in(self):
        return self.direction in ("in", "inout")


@dataclass(frozen=True)
class PresCStub:
    """Everything a back end needs to implement one operation's stubs.

    Attributes:
        operation_name: the operation's name as generated Python spells
            it (:func:`repro.pres.values.python_name`).
        wire_name: the name as the IDL wrote it: what a GIOP request
            carries.
        request_pres: a :class:`PresStruct` over the request MINT whose
            fields are the in-flowing parameters.
        reply_pres: a :class:`PresUnion` over the reply MINT (success arm
            plus one arm per exception), or ``None`` for oneway operations.
        c_decl_factory: builds :attr:`c_decl`, when it is first read.
    """

    operation_name: str
    wire_name: str
    stub_name: str
    request_code: object
    oneway: bool
    parameters: Tuple[PresParam, ...]
    request_pres: PresStruct
    reply_pres: Optional[PresUnion]
    c_decl_factory: Callable = field(repr=False, compare=False)

    @cached_property
    def c_decl(self):
        """The stub's CAST prototype (a ``FuncDecl``): only C reads it,
        so a compile that prints no C builds none."""
        return self.c_decl_factory()

    def in_parameters(self):
        return tuple(p for p in self.parameters if p.is_in)

    def channels(self):
        """The value streams this operation carries, each a tuple of
        ``(name, PresNode)``, labelled as its codec entries are:
        ``request`` (the in-parameters), then, unless oneway, ``ok``
        (the success arm's fields) and ``x<n>`` (exception arm *n*, as
        one ``value``).  The gateway planner, ``flick bridge``'s byte
        accounting and the payload-shape profiler all read this."""
        channels = {"request": tuple(
            (parameter.name, parameter.pres)
            for parameter in self.in_parameters())}
        for index, arm in enumerate(self.reply_pres.arms
                                    if self.reply_pres else ()):
            label = "ok" if index == 0 else "x%d" % arm.labels[0]
            channels[label] = (
                tuple((f.name, f.pres) for f in arm.pres.fields)
                if isinstance(arm.pres, PresStruct)
                else (("value", arm.pres),))
        return channels

    @property
    def return_param(self):
        for parameter in self.parameters:
            if parameter.direction == "return":
                return parameter
        return None


@dataclass
class PresC:
    """A complete presentation of one interface for one side.

    ``side`` is ``"client"`` or ``"server"`` — presentation generators
    create separate PRES_C values per side, as Flick does; for the
    presentations implemented here the two differ only in which stub
    bodies a back end will generate, so the structural content is shared.
    """

    interface_name: str
    interface_code: object
    side: str
    presentation_style: str
    stubs: Tuple[PresCStub, ...]
    mint_registry: MintRegistry
    pres_registry: PresRegistry
    #: Builds :attr:`c_decls` when first read.
    c_decls_factory: Callable = field(default=tuple, repr=False,
                                      compare=False)
    #: Exception presentation: AOI exception name -> generated class name.
    exception_classes: Dict[str, str] = field(default_factory=dict)
    #: What the generator built this from, as a value whose ``repr`` is
    #: its content: the interface's code, its operations (inherited ones
    #: and attribute accessors included), and the input's named types,
    #: exceptions and constants.  Back ends key module names on it.
    source: object = field(default=(), repr=False, compare=False)

    @cached_property
    def c_decls(self):
        """Top-level CAST declarations (typedefs, structs, prototypes),
        built on first read, as :attr:`PresCStub.c_decl` is."""
        return tuple(self.c_decls_factory())

    def stub_named(self, operation_name):
        for stub in self.stubs:
            if stub.operation_name == operation_name:
                return stub
        raise KeyError(operation_name)
